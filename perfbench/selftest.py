"""Self-test of the benchmark harness.

Run from the root of a checkout:  python3 perfbench/selftest.py

It feeds the checker wrong answers, runs the closed loop with a fake
executor whose requests raise, answer wrongly or hang, and runs every
workload once at a tiny size with a fixed seed against bchrom itself.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import graphs as G  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from check import Checker  # noqa: E402

TINY = {
    "tree": {"tiny": [("random", 7), ("path", 6), ("star", 6), ("caterpillar", 8)],
             "300": [("random", 40), ("path", 30)], "2000": [("random", 60)]},
    "cotree": {"tiny": [("random", 7), ("star", 6)], "chain": [("path", 12)],
               "200": [("random", 30), ("forest", 30)]},
    "tcograph": {"tiny": [("nested", 8, "join"), ("wide", 9, "union")],
                 "chain": [("chain", 20, "union")], "wide": [("wide", 40, "join")],
                 "nested": [("nested", 40, "union")]},
}
WORKDIR = os.path.join(ROOT, ".perfbench", "selftest")


def path_instance() -> dict:
    """The path 0-1-2-3-4 with its references."""
    edges = G.path_tree(5)
    return {"id": "p", "shape": "path", "band": "tiny", "n": 5,
            "ref": G.tree_references(5, edges), "files": {},
            "truth": {"a": {"kind": "plain", "edges": edges},
                      "tree-a": {"kind": "plain", "edges": edges}}}


def coloring_text(colors) -> str:
    return "".join(f"{v} {c}\n" for v, c in enumerate(colors))


class CheckerTest(unittest.TestCase):
    def setUp(self) -> None:
        self.checker = Checker({"p": path_instance()})

    def check(self, q: str, answer: dict, k=None, key: str = "a"):
        return self.checker.check({"inst": "p", "q": q, "k": k}, key, answer)

    def test_accepts_right_answers(self) -> None:
        self.assertIsNone(self.check("dominance", {"stdout": "2 2\n3 3\n4 0\n5 0\n"}))
        self.assertIsNone(self.check("bchromatic-witness",
                                     {"stdout": "3\n", "witness": coloring_text([1, 0, 2, 1, 0])}))
        self.assertIsNone(self.check("bcolor", {"stdout": coloring_text([0, 1, 0, 1, 0])}, k=2))

    def test_rejects_improper_coloring(self) -> None:
        wrong = self.check("bcolor", {"stdout": coloring_text([0, 0, 1, 2, 1])}, k=3)
        self.assertIn("share a class", wrong)

    def test_rejects_witness_without_dominating_vertices(self) -> None:
        wrong = self.check("bchromatic-witness",
                           {"stdout": "3\n", "witness": coloring_text([0, 1, 0, 2, 1])})
        self.assertIn("dominating vertex", wrong)

    def test_rejects_wrong_dominance_vector(self) -> None:
        wrong = self.check("dominance", {"stdout": "2 2\n3 2\n4 0\n5 0\n"})
        self.assertIsNotNone(wrong)

    def test_rejects_disagreement_between_labellings(self) -> None:
        inst = path_instance()
        del inst["ref"]["chi_b"]
        checker = Checker({"p": inst})
        self.assertIsNone(checker.check({"inst": "p", "q": "bchromatic"}, "a", {"stdout": "3\n"}))
        self.assertIsNotNone(checker.check({"inst": "p", "q": "bchromatic"}, "b", {"stdout": "2\n"}))

    def test_rejects_bad_deficiency_witness(self) -> None:
        answer = {"value": 0, "matching": [[0, 2]]}
        self.assertIn("not a tree edge", self.check("deficiency", answer, k=1, key="tree-a"))
        answer = {"value": 5, "matching": [[1, 2]]}
        self.assertIn("deficiency", self.check("deficiency", answer, k=1, key="tree-a"))

    def test_rejects_garbage(self) -> None:
        self.assertIn("unparsable", self.check("bchromatic", {"stdout": "error\n"}))
        shifted = {"stdout": "-1 0\n1 1\n2 0\n3 1\n0 0\n"}
        self.assertIn("unparsable", self.check("bcolor", shifted, k=2))


class FakeExecutor:
    """Answers the path instance; request ids pick a failure mode."""

    witness = os.path.join(WORKDIR, "witness.txt")

    def __call__(self, req: dict, path: str) -> dict:
        mode = req["mode"]
        if mode == "raise":
            raise RuntimeError("boom")
        if mode == "hang":
            time.sleep(5)
        if mode == "improper":
            return {"stdout": coloring_text([0, 0, 1, 2, 1])}
        if mode == "wrong-dominance":
            return {"stdout": "2 2\n3 1\n4 0\n5 0\n"}
        if req["q"] == "bcolor":
            return {"stdout": coloring_text([0, 1, 0, 1, 0])}
        return {"stdout": "2 2\n3 3\n4 0\n5 0\n"}


class LoopTest(unittest.TestCase):
    def test_every_failure_is_counted_and_the_run_goes_on(self) -> None:
        os.makedirs(WORKDIR, exist_ok=True)
        inst = path_instance()
        inst["files"]["a"] = os.path.join(WORKDIR, "unused.txt")
        modes = [("ok", "dominance", None), ("raise", "dominance", None),
                 ("hang", "dominance", None), ("improper", "bcolor", 3),
                 ("wrong-dominance", "dominance", None), ("ok", "bcolor", 2)]
        requests = [{"id": i, "inst": "p", "q": q, "k": k, "keys": ["a"], "fmt": "edgelist",
                     "shape": "path", "band": "tiny", "mode": mode}
                    for i, (mode, q, k) in enumerate(modes)]
        manifest = {"workload": "tree", "seed": 0, "limit_s": 0.3,
                    "instances": {"p": inst}, "requests": requests}
        result = worker.run_load(manifest, 1, FakeExecutor(), Checker({"p": inst}))
        status = {r["req"]: r["status"] for r in result["records"]}
        self.assertEqual(status, {0: "ok", 1: "RuntimeError", 2: "RequestTimeout",
                                  3: "WrongAnswer", 4: "WrongAnswer", 5: "ok"})
        setup = [{"elapsed": 0.1, "calib_s": 0.001}]
        metrics = run.end_to_end(result | {"peak_rss_mb": 1.0, "setup_samples": setup}, 0.3)
        self.assertEqual(metrics["latency_p90_s"]["value"], 0.3)


class WorkloadTest(unittest.TestCase):
    def test_tree_references_match_the_oracle(self) -> None:
        from bchrom.graph import Graph
        from bchrom.oracle import oracle_dominance

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 8)
            edges = G.random_tree(n, rng)
            ref = G.tree_references(n, edges)
            vec = oracle_dominance(Graph.from_edges(n, edges))
            self.assertEqual((vec.chi, *vec.values), (ref["chi"], *ref["dom"]), edges)

    def test_every_workload_at_tiny_size(self) -> None:
        for name, sizes in TINY.items():
            with self.subTest(workload=name):
                for tracer in (None, tracing.Tracer()):
                    result = self.run_tiny(name, sizes, tracer)
                    bad = [r for r in result["records"] if r["status"] != "ok"]
                    self.assertEqual(bad, [])

    def test_traced_run_reports_every_per_layer_metric(self) -> None:
        tracer = tracing.Tracer()
        self.run_tiny("cotree", TINY["cotree"], tracer)
        metrics, _, _ = tracer.summary(1, 0.0)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in bench["per_layer"]))
        self.assertGreater(metrics["tree_dp.tables_built"]["value"], 0)
        self.assertGreater(metrics["graph.complement_calls"]["value"], 0)
        slow = 2 * calibration.REFERENCE_S
        e2e = run.end_to_end({"records": [{"req": 0, "key": "a", "elapsed": 1.0, "status": "ok",
                                           "traced": False, "calib_s": slow}],
                              "peak_rss_mb": 1.0,
                              "setup_samples": [{"elapsed": 1.0, "calib_s": slow}]}, 2.0)
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in bench["end_to_end"]))
        # a machine at half the reference speed takes twice as long
        self.assertAlmostEqual(e2e["latency_p50_s"]["value"], 0.5)
        self.assertAlmostEqual(e2e["setup_s"]["value"], 0.5)

    def run_tiny(self, name: str, sizes: dict, tracer) -> dict:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)
        manifest = json.loads(json.dumps(workloads.build(name, 5, WORKDIR, sizes)))
        worker.add_oracle_references(manifest)
        return worker.run_load(manifest, 1 if tracer is None else 2, worker.Executor(WORKDIR),
                               Checker(manifest["instances"]), tracer)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
