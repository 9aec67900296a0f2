"""site-rewrite-cold: the paper's workload — queries rewritten under path
constraints (Section 3.2), every text new to the session."""

from __future__ import annotations

from harness import sync_lap
from repro.constraints.satisfaction import satisfies_all
from repro.engine import Engine, lower_query, run_single
from repro.optimize.cost import DEFAULT_COST_MODEL
from repro.optimize.rewriter import rewrite_query
from repro.query.evaluation import evaluate_baseline
from repro.workloads import cs_department_site

from .base import Workload, hit_share, mean, web_graph


def answer_digest(answers) -> tuple:
    return (len(answers), sum(map(hash, answers)))


class SiteRewriteCold(Workload):
    name = "site-rewrite-cold"
    #: Every text of the workload: a seed only reorders them.
    lap_ops = 114

    WEB_NODES = 20_000
    #: groups x faculty per group x courses per faculty: 24 word equalities.
    #: (3, 4, 3) — 48 equalities — rewrites in 25-160 ms, which leaves a 4 s
    #: lap under 60 ops; this size keeps the three cost classes within 3x.
    SITE = (2, 3, 3)

    def generate(self, tmpdir) -> None:
        site = cs_department_site(*self.SITE, seed=0)
        # The site sits inside a web graph so that set-up and the CSR are
        # realistic.  Web labels never appear in a constraint, so linking the
        # site's leaf pages into the web keeps every equality true at the root.
        instance, pages = web_graph(300 if self.smoke else self.WEB_NODES)
        for edge in site.instance.edges():
            instance.add_edge(*edge)
        for index in range(self.SITE[0] * 3):
            instance.add_edge(f"misc_page_{index}", "a", pages[index])
        self.instance = instance
        self.site = site
        self.root = site.root

    def open_cold(self, tmpdir) -> None:
        self.cold = Engine.open(self.instance, constraints=self.site.constraints)

    def open_warm(self, tmpdir) -> None:
        self.engine = Engine.open(
            tmpdir / self.SNAPSHOT, instance=self.instance,
            constraints=self.site.constraints,
        )
        del self.cold

    def texts(self) -> "list[str]":
        """Every query text of the workload: 114 texts in three cost classes,
        by the number of rewrite candidates the constraints offer.

        One candidate (12 texts, about 15 ms), two (78, about 25 ms), three
        (24, about 40 ms): the median sits inside the middle class and the
        90th percentile a dozen ranks inside the top one.
        """
        _groups, per_group, per_faculty = self.SITE
        site = self.site
        courses = site.course_ids
        texts = []
        for number, name in enumerate(site.faculty_names):
            group = "DB-group" if number < per_group else f"group-{number // per_group}"
            first = number * per_faculty
            own = courses[first:first + per_faculty]
            through = f"CS-Department {group} {name}"
            # Faculty + group unions and Classes + Publications tails.
            texts.append(f"CS-Department ({group} + Faculty) {name} (Classes + Publications)")
            texts.append(f"CS-Department ({group} + Faculty) {name} Publications")
            texts.append(f"{through} (Classes + Publications)")
            # Long through-group paths to the person's own courses: the
            # introduction's equality rewrites them to the catalog path.
            texts.extend(f"{through} Classes {course}" for course in own)
            texts.append(f"{through} Classes ({' + '.join(own)})")
            for left in range(per_faculty):
                for right in range(left + 1, per_faculty):
                    texts.append(f"{through} Classes ({own[left]} + {own[right]})")
            # The same path to other people's courses: no equality applies.
            for offset in range(per_faculty, per_faculty + 9):
                other = courses[(first + offset) % len(courses)]
                texts.append(f"{through} Classes {other}")
        return texts

    def make_ops(self, count: int) -> list:
        texts = self.texts()
        self.rng("ops").shuffle(texts)
        return texts[:count]  # every text at most once per lap

    def oracle(self, ops: list) -> dict:
        # The paper's soundness claim: the rewritten query answers exactly
        # what the *unrewritten* one does where the constraints hold.
        if not satisfies_all(self.instance, self.root, self.site.constraints):
            raise RuntimeError("the site's constraints do not hold at its root")
        rng = self.rng("oracle")
        expected = {}
        for index in rng.sample(range(len(ops)), min(12, len(ops))):
            expected[index] = answer_digest(
                evaluate_baseline(ops[index], self.root, self.instance).answers
            )
        return expected

    def lap(self, ops: list):
        engine, root = self.engine, self.root
        return sync_lap(ops, lambda text: engine.query(text, root).answers,
                        answer_digest)

    def restore(self) -> None:
        # A fresh session: no text of the next lap has been seen by it.
        self.engine = Engine.open(self.instance, constraints=self.site.constraints)

    def counts(self) -> dict:
        return {
            "visited_pairs": self.engine.stats.visited_pairs,
            "rewrites_applied": self.engine.stats.rewrites_applied,
            "compile_hits": self.engine.compiler.hits,
            "compile_misses": self.engine.compiler.misses,
        }

    def trace(self, ops: list, recorder, facade: list) -> dict:
        graph = self.engine.graph
        node = graph.node_id(self.root)
        failed = 0
        improved = candidates = states = 0
        reference = facade[0].digests
        for index, text in enumerate(ops):
            with recorder.span("op", index):
                with recorder.span("rewriter.rewrite"):
                    outcome = rewrite_query(
                        text, self.site.constraints, DEFAULT_COST_MODEL
                    )
                with recorder.span("compiled_query.compile_cold"):
                    compiled = lower_query(outcome.best, graph)
                with recorder.span("executor.run_single"):
                    run = run_single(graph, compiled, node, backend=self.engine.backend)
                with recorder.span("session.materialize"):
                    answers = graph.oids_of(run.answers)
            improved += outcome.improved
            candidates += len(outcome.candidates)
            states += compiled.dfa_size
            failed += answer_digest(answers) != reference[index]
        return {
            "_failed": failed,
            "rewriter.rewrite_ms": mean(recorder.durations("rewriter.rewrite")) * 1e3,
            "rewriter.improved_share": improved / len(ops),
            "rewriter.candidates_mean": candidates / len(ops),
            "compiled_query.compile_cold_ms": mean(
                recorder.durations("compiled_query.compile_cold")) * 1e3,
            "compiled_query.dfa_states_mean": states / len(ops),
            "compiled_query.cache_hit_share": hit_share(facade[0].counts),
            "executor.run_batch_ms": mean(recorder.durations("executor.run_single")) * 1e3,
        }
