"""Legacy setup script.

The canonical project metadata lives in ``pyproject.toml``; this file exists
only so that the package can be installed in environments without the
``wheel`` package / network access (``pip install -e . --no-use-pep517`` or
plain ``python setup.py develop``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Regular Path Queries with Constraints' "
        "(Abiteboul & Vianu, PODS 1997)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The library itself is stdlib-only; numpy is a strictly optional
    # accelerator (the engine's executor dispatcher falls back to the
    # pure-Python paths without it).  CI installs both matrix arms from
    # these extras instead of ad-hoc pip lines.
    extras_require={
        "numpy": ["numpy>=1.24"],
        "test": ["pytest>=7", "hypothesis>=6"],
    },
)
