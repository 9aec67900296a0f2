"""The CSR build's layout is pinned: node ids, label order and every array.

``CompiledGraph._build_csr`` fills each label's row pointers run by run (or
with one C-level prefix sum where most nodes have edges) instead of a Python
prefix sum over every node.  Snapshots, product lowerings and answer
digests all read these arrays, so ``to_parts()`` must stay byte for byte
what the per-node prefix sum below produced, after ``from_instance`` and
after ``compact()``: on the five benchmark workloads' instances and on drawn
instances whose objects mix oid types.
"""

from __future__ import annotations

import pickle
from array import array

from hypothesis import given
from hypothesis import strategies as st

from _strategies import small_instances
from repro.engine import CompiledGraph
from repro.graph import Instance


def prefix_sum_rows(buckets, n: int, label_count: int):
    """Per label, ``(indptr, targets)`` by a prefix sum over all ``n + 1``
    nodes and a cursor fill: the reference layout."""
    indptrs, targets_by_label = [], []
    for lid in range(label_count):
        edges = sorted(buckets.get(lid, ()))
        counts = [0] * (n + 1)
        for sid, _ in edges:
            counts[sid + 1] += 1
        for i in range(1, n + 1):
            counts[i] += counts[i - 1]
        targets = array("q", bytes(8 * len(edges)))
        cursor = counts[:]
        for sid, did in edges:
            targets[cursor[sid]] = did
            cursor[sid] += 1
        indptrs.append(array("q", counts))
        targets_by_label.append(targets)
    return indptrs, targets_by_label


def reference_parts(instance: Instance, version: int = 1) -> dict:
    """What ``CompiledGraph.from_instance(instance).to_parts()`` must be."""
    nodes = sorted(instance.objects, key=repr)
    ids = {oid: index for index, oid in enumerate(nodes)}
    labels: "dict[str, int]" = {}
    buckets: "dict[int, list]" = {}
    for source, label, destination in instance.edges():
        lid = labels.setdefault(label, len(labels))
        buckets.setdefault(lid, []).append((ids[source], ids[destination]))
    indptr, targets = prefix_sum_rows(buckets, len(nodes), len(labels))
    return {
        "nodes": nodes,
        "labels": list(labels),
        "csr_nodes": len(nodes),
        "indptr": indptr,
        "targets": targets,
        "overflow": [{} for _ in labels],
        "dead": [set() for _ in labels],
        "version": version,
    }


def compacted_reference(graph: CompiledGraph) -> dict:
    """What ``graph.to_parts()`` must be once ``graph.compact()`` has run."""
    parts = graph.to_parts()
    if not any(parts["overflow"]) and not any(parts["dead"]) and (
        parts["csr_nodes"] == len(parts["nodes"])
    ):
        return parts  # already dense: compaction is a no-op
    buckets: "dict[int, list]" = {}
    for sid, lid, did in graph.iter_edges():
        buckets.setdefault(lid, []).append((sid, did))
    n, label_count = len(parts["nodes"]), len(parts["labels"])
    indptr, targets = prefix_sum_rows(buckets, n, label_count)
    return {
        **parts,
        "csr_nodes": n,
        "indptr": indptr,
        "targets": targets,
        "overflow": [{} for _ in range(label_count)],
        "dead": [set() for _ in range(label_count)],
        "version": parts["version"] + 1,
    }


def assert_same_bytes(graph: CompiledGraph, expected: dict) -> None:
    parts = graph.to_parts()
    assert pickle.dumps(parts, protocol=4) == pickle.dumps(expected, protocol=4)


def edit(graph: CompiledGraph, instance: Instance, count: int) -> None:
    """Remove the first ``count`` edges, add ``count`` new ones (a new label
    and new objects among them) without compacting."""
    graph.auto_compact_ratio = None
    edges = list(instance.edges())[: 2 * count]
    for source, label, destination in edges[:count]:
        graph.remove_edge(source, label, destination)
    for index, (source, label, _) in enumerate(edges[count:]):
        graph.add_edge(source, label + "'" if index % 3 == 0 else label, ("new", index))


def test_workload_instances_keep_their_layout(e2e_workloads, tmp_path):
    seen = set()
    for cls in e2e_workloads.values():
        workload = cls(seed=1)
        workload.generate(tmp_path)
        instance = workload.instance
        if instance.content_fingerprint() in seen:  # three share the web graph
            continue
        seen.add(instance.content_fingerprint())
        graph = CompiledGraph.from_instance(instance)
        assert_same_bytes(graph, reference_parts(instance))
        edit(graph, instance, 100)
        expected = compacted_reference(graph)
        graph.compact()
        assert_same_bytes(graph, expected)
    assert len(seen) == 3


@st.composite
def mixed_instances(draw):
    """``small_instances`` with each object renamed to an int, a str or a
    tuple: ``repr`` orders (and so node ids) interleave the types."""
    instance, _ = draw(small_instances(max_nodes=8, max_edges=16))
    kinds = draw(st.lists(st.sampled_from("ist"), min_size=8, max_size=8))
    rename = {
        node: {"i": node, "s": f"n{node}", "t": (node, "x")}[kinds[node]]
        for node in instance.objects
    }
    mixed = Instance()
    for node in sorted(instance.objects):
        mixed.add_object(rename[node])
    for source, label, destination in instance.edges():
        mixed.add_edge(rename[source], label, rename[destination])
    return mixed


@given(mixed_instances(), st.integers(0, 4))
def test_drawn_mixed_oid_instances_keep_their_layout(instance, edits):
    graph = CompiledGraph.from_instance(instance)
    assert_same_bytes(graph, reference_parts(instance))
    edit(graph, instance, min(edits, instance.edge_count() // 2))
    expected = compacted_reference(graph)
    graph.compact()
    assert_same_bytes(graph, expected)
