"""Closed-loop load for one workload, in a process of its own.

Usage: worker.py MANIFEST RESULT PASSES TRACE SRC_DIR

One client in one thread issues the pool's requests in a seeded random
order, each only after the previous one returned, and checks every answer.
It runs PASSES whole passes over the pool.  With TRACE=1, passes alternate
between untraced and traced, so the tracing overhead is measured on the
same mix.  With TRACE=0, set-up time is sampled in fresh interpreters
between the passes, so its samples spread over the whole run.  The
reference loop of ``calibration.py`` is timed before each pass and after
each request, and after each set-up sample too.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import calibration
from check import Checker

# Stop issuing requests after this much wall time, even mid-pass, so the
# whole run ends within its time limit.  Only a much slower program than
# the one the pass counts were chosen for reaches it.
HARD_STOP_S = 130.0
MEMORY_LIMIT = 3 << 30

SETUP_SAMPLES = 10
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibration\n"
    "before = calibration.loop_s()\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bchrom.cli\n"
    "bchrom.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, (before + calibration.loop_s()) / 2)\n"
)


class RequestTimeout(BaseException):
    """Raised by the alarm at the per-request limit.  Not an Exception, so
    no handler in the code under test swallows it."""


class RequestFailed(Exception):
    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class Executor:
    """Runs one request against bchrom and returns its raw answer."""

    def __init__(self, workdir: str) -> None:
        from bchrom import cli, fileio, tree_dp

        self.cli, self.fileio, self.tree_dp = cli, fileio, tree_dp
        self.witness = os.path.join(workdir, "witness.txt")
        self.last_error: str | None = None
        # The CLI turns a BchromError into exit status 1 and a message; wrap
        # its subcommand handlers to learn the exception's type too.
        for name in dir(cli):
            if name.startswith("_cmd_"):
                handler = getattr(cli, name)
                setattr(cli, name, self._probe(getattr(handler, "__wrapped__", handler)))

    def _probe(self, handler):
        @functools.wraps(handler)
        def probe(args):
            try:
                return handler(args)
            except BaseException as exc:
                self.last_error = type(exc).__name__
                raise

        return probe

    def argv(self, req: dict, path: str) -> list[str]:
        q = req["q"]
        if q == "bchromatic-witness":
            return ["bchromatic", path, "--witness", self.witness]
        if q == "bcolor":
            return ["bcolor", path, str(req["k"])]
        return [q, path]

    def __call__(self, req: dict, path: str) -> dict:
        if req["q"] == "deficiency":
            # no subcommand exposes the deficiency witness
            tree = self.fileio.read_edgelist(path)
            value, matching = self.tree_dp.deficiency_matching(tree, req["k"])
            return {"value": value, "matching": sorted(matching)}
        out, err = io.StringIO(), io.StringIO()
        self.last_error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.main(self.argv(req, path))
        if status != 0:
            raise RequestFailed(self.last_error or f"exit{status}", err.getvalue().strip())
        return {"stdout": out.getvalue()}


class _Alarm:
    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            raise RequestTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_one(req: dict, key: str, inst: dict, limit: float, execute, checker: Checker,
            alarm: _Alarm) -> dict:
    """Issue one request and check its answer.  Every failure is recorded,
    none escapes."""
    path = inst["files"][key]
    if req["q"] == "bchromatic-witness" and os.path.exists(execute.witness):
        os.remove(execute.witness)
    gc.collect()
    status, reason, answer = "ok", "", None
    alarm.arm(limit)
    start = time.perf_counter()
    try:
        try:
            answer = execute(req, path)
        finally:
            elapsed = time.perf_counter() - start
            alarm.armed = False
    except RequestTimeout:
        status = "RequestTimeout"
    except RequestFailed as exc:
        status, reason = exc.kind, str(exc)
    except (Exception, SystemExit) as exc:  # one failing request must not end the run
        status, reason = type(exc).__name__, str(exc)
    alarm.disarm()
    if status == "ok" and elapsed > limit:
        status = "RequestTimeout"
    if status == "ok":
        if req["q"] == "bchromatic-witness":
            with open(execute.witness, encoding="utf-8") as fh:
                answer["witness"] = fh.read()
        wrong = checker.check(req, key, answer)
        if wrong:
            status, reason = "WrongAnswer", wrong
    return {"req": req["id"], "q": req["q"], "shape": req["shape"], "band": req["band"],
            "fmt": req["fmt"], "key": key, "elapsed": elapsed, "status": status,
            "reason": reason.splitlines()[0][:300] if reason else ""}


class SetupSampler:
    """Times `import bchrom.cli` plus `build_parser()` in fresh
    interpreters, a share of the samples after each pass."""

    def __init__(self, src: str, passes: int) -> None:
        self.src, self.passes = src, passes
        self.samples: list[float] = []
        self.sample()  # writes the bytecode caches; not kept
        self.samples.clear()

    def sample(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, self.src, here],
                             check=True, capture_output=True, text=True, timeout=60).stdout
        elapsed, calib = out.split()[-2:]
        self.samples.append({"elapsed": float(elapsed), "calib_s": float(calib)})

    def after_pass(self, done: int) -> None:
        while len(self.samples) < SETUP_SAMPLES * done // self.passes:
            self.sample()


def run_load(manifest: dict, passes: int, execute, checker: Checker, tracer=None,
             after_pass=None) -> dict:
    """Run ``passes`` passes over the pool; ``after_pass(done)`` is called
    after each one, outside the timed requests.  Each record holds the mean
    of the reference loop's times just before and just after its request."""
    requests, instances = manifest["requests"], manifest["instances"]
    limit = manifest["limit_s"]
    rng = random.Random(f"order:{manifest['workload']}:{manifest['seed']}")
    alarm = _Alarm()
    records: list[dict] = []
    start = time.perf_counter()
    done = 0
    stopped = False
    while done < passes and not stopped:
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.install()
        calib = calibration.loop_s()
        try:
            for idx in rng.sample(range(len(requests)), len(requests)):
                if time.perf_counter() - start > HARD_STOP_S:
                    stopped = True
                    break
                req = requests[idx]
                if traced:
                    tracer.request = len(records)
                # traced runs pair each traced pass with an untraced one on
                # the same labelling
                labelling = done // 2 if tracer is not None else done
                rec = run_one(req, req["keys"][labelling % len(req["keys"])],
                              instances[req["inst"]], limit, execute, checker, alarm)
                after = calibration.loop_s()
                rec["pass"], rec["traced"], rec["calib_s"] = done, traced, (calib + after) / 2
                calib = after
                records.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        done += 1
        if after_pass is not None:
            after_pass(done)
    return {"records": records, "passes": done, "wall_s": time.perf_counter() - start}


def tracing_overhead(records: list[dict]) -> float:
    """Traced over untraced time, each request and labelling at its fastest
    pass, as for the end-to-end latencies."""
    fastest: dict[tuple, float] = {}
    for r in records:
        slot = (r["req"], r["key"], r["traced"])
        fastest[slot] = min(fastest.get(slot, r["elapsed"]), r["elapsed"])
    pairs = [(t, fastest[(req, key, False)]) for (req, key, traced), t in fastest.items()
             if traced and (req, key, False) in fastest]
    if not pairs:
        return 0.0
    return sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1


def add_oracle_references(manifest: dict) -> None:
    """Brute-force answers for the instances with n <= 10."""
    from bchrom.graph import Graph, complement
    from bchrom.oracle import oracle_dominance, oracle_f_t_k

    for inst in manifest["instances"].values():
        if not inst.get("tiny"):
            continue
        truth = inst["truth"]["a"]
        g = Graph.from_edges(inst["n"], [tuple(e) for e in truth["edges"]])
        vec = oracle_dominance(complement(g) if truth["kind"] == "co" else g)
        inst["ref"]["oracle_dom"] = [vec.chi, *vec.values]
        for req in manifest["requests"]:
            if req["inst"] == inst["id"] and req["q"] == "deficiency":
                f = oracle_f_t_k(g, req["k"])
                inst["ref"].setdefault("oracle_def", {})[str(req["k"])] = f


def warm_up(manifest: dict, execute) -> None:
    """Issue one request of each question on its smallest instance, so lazy
    imports and first-call costs fall outside the timed passes."""
    smallest: dict[str, dict] = {}
    for req in manifest["requests"]:
        inst = manifest["instances"][req["inst"]]
        best = smallest.get(req["q"])
        if best is None or inst["n"] < manifest["instances"][best["inst"]]["n"]:
            smallest[req["q"]] = req
    alarm = _Alarm()
    for req in smallest.values():
        inst = manifest["instances"][req["inst"]]
        run_one(req, req["keys"][0], inst, manifest["limit_s"], execute,
                Checker(manifest["instances"]), alarm)


def main(argv: list[str]) -> int:
    manifest_path, result_path, passes, trace, src = argv[1:6]
    sys.path.insert(0, src)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    execute = Executor(os.path.dirname(manifest_path))
    add_oracle_references(manifest)
    warm_up(manifest, execute)
    tracer = setup = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
    else:
        setup = SetupSampler(src, int(passes))
    gc.collect()
    gc.freeze()
    result = run_load(manifest, int(passes), execute, Checker(manifest["instances"]), tracer,
                      setup and setup.after_pass)
    if setup is not None:
        setup.after_pass(setup.passes)  # the rest, if the loop stopped early
        result["setup_samples"] = setup.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        traced = sum(r["traced"] for r in result["records"])
        metrics, table, errors = tracer.summary(traced, tracing_overhead(result["records"]))
        result["trace"] = {"metrics": metrics, "table": table, "errors": errors,
                           "spans": len(tracer.spans)}
        tracer.write(os.path.join(os.path.dirname(manifest_path), "spans.jsonl.gz"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
