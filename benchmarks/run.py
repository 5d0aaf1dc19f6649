"""End-to-end and per-layer benchmark of the ldic command line.

Run from the root of a source checkout; ldic is imported from ``src/``, not
installed:

    python3 benchmarks/run.py --workload channel-mix --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

One client drives ``ldic.cli.main(argv)`` in this process in a closed loop:
the next request starts when the previous one has returned. Every argv is
generated from the seed before timing starts (see ``workloads.py``), and
the loop runs whole rounds of the deck until ``--seconds`` have passed.
Outputs are spooled to ``.bench_out/`` and checked after the timed loop
(see ``checks.py``); a request fails on a non-zero exit, an exception, or a
failed check.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the deck's first rounds are run alternately untraced
and traced (see ``tracing.py``) and the line reports per-layer metrics.
The line before it is a JSON record of the run: environment, tail
percentile and sample count, error rate and the stdout digest.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = "import sys\nfrom ldic.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if ".us_per_use." in name:
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def why(name: str):
    """The reason BENCHMARK.json gives for choosing a workload, if the file is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_pinned": False,
        "note": "runs are not CPU-pinned: the sandbox cannot pin",
    }


def run_request(cli, argv: list):
    """(seconds, exit code or exception text, stdout) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = traceback.format_exc(limit=-3)
        elapsed = perf_counter() - start
    if code != 0:
        print(f"request failed: {argv}: {code} {err.getvalue().strip()}", file=sys.stderr)
    return elapsed, code, out.getvalue()


def measure_setup(argv: list, repeats: int) -> list:
    """Wall seconds for a fresh interpreter to import ldic.cli and answer argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up request {argv} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
    return times


class Spool:
    """Request outputs on disk, so that holding them does not raise peak memory."""

    def __init__(self, path: str):
        self.path = path
        self.file = open(path, "wb")
        self.records = []  # (round, argv, code) per output, in order

    def add(self, round_index: int, argv: list, code, text: str) -> None:
        data = text.encode()
        self.file.write(len(data).to_bytes(8, "little"))
        self.file.write(data)
        self.records.append((round_index, argv, code))

    def __iter__(self):
        self.file.flush()
        with open(self.path, "rb") as f:
            for round_index, argv, code in self.records:
                size = int.from_bytes(f.read(8), "little")
                yield round_index, argv, code, f.read(size).decode()

    def close(self) -> None:
        self.file.close()
        os.remove(self.path)


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_spool(spool, workload, seed: int, prefix_rounds: int):
    """(failed, prefix digest) over every spooled output."""
    from checks import check_output

    rng = random.Random(f"check:{workload.name}:{seed}")
    digest = hashlib.sha256()
    failed = 0
    for round_index, argv, code, text in spool:
        if round_index < prefix_rounds:
            digest.update(text.encode())
        reason = check_output(argv, text, rng) if code == 0 else f"exit {code}"
        if reason is not None:
            failed += 1
            if code == 0:
                print(f"check failed: {argv}: {reason}", file=sys.stderr)
    return failed, digest.hexdigest()


def digest_ok(workload, seed: int, prefix_rounds: int, digest: str):
    """True/False when a digest is recorded for this seed and prefix, else None."""
    if seed != DEFAULT_SEED or prefix_rounds != workload.prefix_rounds or not workload.digest:
        return None
    if digest != workload.digest:
        print(f"stdout digest {digest} differs from the recorded {workload.digest}",
              file=sys.stderr)
    return digest == workload.digest


def run_end_to_end(cli, workload, deck, seed, seconds, prefix_rounds, setup_repeats):
    setup = measure_setup(deck[0][0], setup_repeats)
    os.makedirs(OUT_DIR, exist_ok=True)
    spool = Spool(os.path.join(OUT_DIR, f"spool-{os.getpid()}.bin"))
    try:
        latencies, round_rates, k = [], [], 0
        start = perf_counter()
        while True:
            gc.collect()
            busy = completed = 0
            for argv in deck[k % len(deck)]:
                elapsed, code, text = run_request(cli, argv)
                latencies.append(elapsed)
                spool.add(k, argv, code, text)
                busy += elapsed
                completed += code == 0
            round_rates.append(completed / busy)
            k += 1
            if perf_counter() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for extra in range(k, prefix_rounds):  # complete the digest prefix, untimed
            for argv in deck[extra]:
                spool.add(extra, argv, *run_request(cli, argv)[1:])
        attempted = len(spool.records)
        failed, digest = check_spool(spool, workload, seed, prefix_rounds)
    finally:
        spool.close()
    matched = digest_ok(workload, seed, prefix_rounds, digest)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "throughput_rps": statistics.median(round_rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "success_rate": 1 - failed / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "rounds": k,
        "requests": len(latencies),
        "latency_tail": {"percentile": round(tail_pct, 2), "samples": len(latencies),
                         "beyond": min(TAIL_BEYOND, len(latencies) - 1)},
        "error_rate": failed / attempted,
        "setup_runs_s": setup,
        "setup_request": deck[0][0],
        "stdout_sha256": digest,
        "digest_matches_record": matched,
    }
    return attempted, failed, matched is not False, metrics, END_TO_END_UNITS, record


def run_traced(cli, workload, deck, seed, seconds, prefix_rounds):
    from checks import check_output

    requests = [argv for rnd in deck[:prefix_rounds] for argv in rnd]
    tracer = Tracer()
    rng = random.Random(f"check:{workload.name}:{seed}")
    attempted = failed = 0
    first_outputs = None
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pair = {}
        # Alternate which pass goes first, so warm-up and drift favour neither.
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            gc.collect()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                results = [run_request(cli, argv) for argv in requests]
            finally:
                tracer.uninstall()
            attempted += len(results)
            failed += sum(1 for _, code, _ in results if code != 0)
            outputs = [text for _, _, text in results]
            pair[traced] = (sum(elapsed for elapsed, _, _ in results), outputs)
        if first_outputs is None:
            first_outputs = pair[False][1]
        for outputs in (pair[False][1], pair[True][1]):
            if outputs != first_outputs:
                failed += 1
                print("outputs changed between passes or under tracing", file=sys.stderr)
        metrics = tracer.layer_metrics()
        metrics["output.bytes"] = sum(len(text.encode()) for text in pair[True][1])
        metrics["trace.throughput_ratio"] = pair[False][0] / pair[True][0]
        passes.append(metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl"))

    for argv, text in zip(requests, first_outputs):
        reason = check_output(argv, text, rng)
        if reason is not None:
            failed += 1
            print(f"check failed: {argv}: {reason}", file=sys.stderr)
    digest = hashlib.sha256("".join(first_outputs).encode()).hexdigest()
    matched = digest_ok(workload, seed, prefix_rounds, digest)
    # median_low keeps counts, which repeat exactly from pass to pass, integers.
    metrics = {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
    units = {name: layer_unit(name) for name in metrics}
    record = {
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "stdout_sha256": digest,
        "digest_matches_record": matched,
    }
    return attempted, failed, matched is not False, metrics, units, record


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 prefix_rounds=None, setup_repeats=SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import ldic.cli as cli

    workload = WORKLOADS[name]
    if prefix_rounds is None:
        prefix_rounds = workload.prefix_rounds
    deck = workload.deck(seed, max(prefix_rounds, workload.rounds_for(seconds)))
    if trace:
        attempted, failed, digest_good, metrics, units, record = run_traced(
            cli, workload, deck, seed, seconds, prefix_rounds)
    else:
        attempted, failed, digest_good, metrics, units, record = run_end_to_end(
            cli, workload, deck, seed, seconds, prefix_rounds, setup_repeats)
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace), "why": why(name),
                      "environment": environment(), **record}))
    return {
        "correct": failed == 0 and digest_good,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    """Each workload on one round, both modes; every declared metric must appear."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, DEFAULT_SEED, 0, trace, prefix_rounds=1, setup_repeats=1)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{name} trace={int(trace)}: emitted {emitted}, declared {expected}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: outputs not correct")
            print(f"smoke {name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"correct={result['correct']}", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the emitted metric names")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ldic", "cli.py")):
        print(f"error: {SRC}/ldic/cli.py not found; run from the root of an ldic checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
