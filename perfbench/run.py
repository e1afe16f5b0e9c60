"""tabseq benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-test

Load model: a closed loop with one client. Each repetition of a workload is
a fresh single workload process (perfbench/child.py) with BLAS/OpenMP
threads capped at nproc through its environment; the processes run one
after another, never two at once. Repetitions continue while the next one
is expected to end within ``--seconds``; there is always at least one.
End-to-end metrics are medians over the repetitions, taken with tracing
off. ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics (medians over traced repetitions) and the tracing
overhead.

Each repetition's outputs are checked: every operation's own output check,
every metric finite and in range, and a SHA-256 digest of the run's
deterministic outputs that must agree across all repetitions of a seed,
including earlier runs of the same program and benchmark code in this checkout. A failed
check counts toward ``failed`` and ``fail_fraction`` and makes the command exit 1.

Metric units, directions and bounds come from BENCHMARK.json; metrics.json
adds the ungated end-to-end metrics, each metric's workloads and range, and
the layer-to-end-to-end mapping.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files live in ``.perfbench_work/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 3

sys.path.insert(0, HERE)
from workloads import OPERATIONS, SETUP_FIRST, WORKLOADS  # noqa: E402  (imports no tabseq)

perf = time.perf_counter

# per-layer metrics measured by run.py itself rather than the workload process
HARNESS_LAYER_METRICS = ("synthgen.generate_s", "trace.overhead_s")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    """Every metric: BENCHMARK.json's gated ones joined with metrics.json."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    extra = load_json(os.path.join(HERE, "metrics.json"))
    gated = {m["name"]: m for m in bench["end_to_end"]}
    return {"bench": bench, "per_layer": bench["per_layer"],
            "end_to_end": [dict(m, **gated.get(m["name"], {})) for m in extra["end_to_end"]]}


def source_hash() -> str:
    """SHA-256 over src/tabseq and perfbench, so stored digests and fixtures
    belong to one version of the program and of the workload definitions."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "tabseq"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def digest(deterministic) -> str:
    blob = json.dumps(deterministic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Runner:
    """Spawns workload processes one at a time, within the run's deadline."""

    def __init__(self, size: str, deadline: float):
        self.size = size
        self.deadline = deadline
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OMP_NUM_THREADS=nproc, OPENBLAS_NUM_THREADS=nproc,
                        MKL_NUM_THREADS=nproc)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def child(self, mode, workload, seed, dirs, tag, flags=()):
        """Run child.py once; returns (spawn timestamp, result dict or None)."""
        out = os.path.join(dirs["logs"], f"{tag}.json")
        log = os.path.join(dirs["logs"], f"{tag}.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--workload", workload,
               "--seed", str(seed), "--size", self.size, "--inputs", dirs["inputs"],
               "--cache", dirs["cache"], "--out", out, *flags]
        with open(log, "w", encoding="utf-8") as fh:
            t_spawn = perf()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env)
            try:
                proc.wait(timeout=max(1.0, self.deadline - perf()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fh.write("\nperfbench: killed at the run deadline\n")
        if not os.path.exists(out):
            with open(log, encoding="utf-8") as fh:
                sys.stderr.write(f"perfbench: {mode} {workload} failed:\n{fh.read()[-3000:]}")
            return t_spawn, None
        return t_spawn, load_json(out)


# -- per-repetition metrics and checks ------------------------------------------------

def end_to_end(t_spawn: float, res: dict) -> dict:
    """End-to-end metrics of one untraced repetition (None where n/a)."""
    st = res["stages"]
    fit = st.get("pretrain", 0.0) + st.get("train", 0.0)
    return {
        "wall_s": res["t_done"] - t_spawn,
        "setup_s": res["t_imported"] - t_spawn + st.get("setup", 0.0),
        "score_windows_per_s": res["scored_windows"] / st["score"] if st.get("score") else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "pretrain_s": st["pretrain"] if "pretrain" in st else None,
        "train_s": st["train"] - st.get("validate", 0.0) if "train" in st else None,
        "validate_s": st.get("validate", 0.0) if fit else None,
        "hier_metric_m": res["hier_metric_m"],
    }


def check_repetition(spec, workload, res, metrics, layers=None) -> list[str]:
    """Problems with one repetition's metrics; empty when all are sound."""
    problems = []
    for m in spec["end_to_end"]:
        if workload not in m["workloads"] or "range" not in m:
            continue
        v = metrics.get(m["name"])
        lo, hi = m["range"]
        if not (isinstance(v, (int, float)) and math.isfinite(v)
                and (lo is None or v >= lo) and (hi is None or v <= hi)):
            problems.append(f"{m['name']}={v!r} not finite or outside [{lo}, {hi}]")
    if metrics.get("setup_s") is not None and metrics.get("wall_s") is not None \
            and metrics["setup_s"] > metrics["wall_s"]:
        problems.append("setup_s exceeds wall_s")
    if layers is not None:
        for name in layer_names(spec):
            if name in HARNESS_LAYER_METRICS:
                continue
            v = layers.get(name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                problems.append(f"{name}={v!r} missing or not finite")
            elif v < 0:
                problems.append(f"{name}={v!r} negative")
        problems += res.get("attn_mismatches", [])
    return problems


def layer_names(spec):
    return [m["name"] for m in spec["per_layer"]]


def evaluate(spec, workload, reps, registry, key) -> dict:
    """Check every repetition. A failed range, attention-pair or digest check
    fails all of its operations; an operation's own failed check fails only it.

    ``reps`` holds dicts with the child result ``res`` (None if the process
    died), its ``metrics`` and, for traced ones, ``layers``. Each
    repetition's ``fail_fraction`` is set here, after all of its checks.
    """
    attempted = failed = 0
    problems = []
    digests = set()
    for i, rep in enumerate(reps):
        n_ops = len(OPERATIONS[workload])
        attempted += n_ops
        res = rep["res"]
        if res is None:
            failed += n_ops
            rep["metrics"]["fail_fraction"] = 1.0
            problems.append(f"repetition {i}: workload process produced no result")
            continue
        bad = check_repetition(spec, workload, res, rep["metrics"], rep.get("layers"))
        rep["digest"] = digest(res["deterministic"])
        digests.add(rep["digest"])
        expected = registry.get(key)
        if expected is not None and rep["digest"] != expected:
            bad.append(f"digest {rep['digest'][:16]} differs from {expected[:16]}, "
                       "recorded by an earlier run of this seed and code")
        if len(digests) > 1:
            bad.append(f"digest {rep['digest'][:16]} differs from an earlier repetition")
        own = [f"{op['name']}: {op['error']}" for op in res["ops"] if not op["ok"]]
        rep_failed = n_ops if bad else len(own)
        problems += [f"repetition {i}: {b}" for b in bad + own]
        failed += rep_failed
        rep["metrics"]["fail_fraction"] = rep_failed / n_ops
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digests": sorted(digests)}


def summarize(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


# -- one workload run --------------------------------------------------------------------

def top_up_setup(runner, workload, seed, dirs, have) -> list:
    """Set-up-only repetitions until ``setup_s`` has MIN_SETUP_SAMPLES samples;
    each stops at the workload's first model step."""
    samples, longest = [], 0.0
    while have + len(samples) < MIN_SETUP_SAMPLES and perf() + longest < runner.deadline:
        t_spawn, res = runner.child("run", workload, seed, dirs, f"setup{len(samples)}",
                                    ["--setup-only"])
        samples.append(None if res is None
                       else res["t_imported"] - t_spawn + res["stages"].get("setup", 0.0))
        longest = max(longest, perf() - t_spawn)
    return samples


def run_workload(workload, seed, seconds, trace, size, spec):
    """Prepare inputs, repeat the workload within ``seconds``, check, summarise.

    ``size`` is "full" for the benchmark; the self-test runs "tiny"."""
    t_begin = perf()
    runner = Runner(size, t_begin + DEADLINE_S)
    src = source_hash()
    tag = f"{workload}-{size}-seed{seed}"
    dirs = {"inputs": os.path.join(WORK, "inputs", tag),
            "cache": os.path.join(WORK, "cache", f"score-{size}-seed{seed}-{src[:16]}"),
            "logs": os.path.join(WORK, "logs", f"{tag}-trace{int(trace)}")}
    for d in ("inputs", "logs"):
        shutil.rmtree(dirs[d], ignore_errors=True)
        os.makedirs(dirs[d])
    _, prep = runner.child("prepare", workload, seed, dirs, "prepare")
    reps, setup_only = [], []
    if prep is not None:
        t_loop, longest = perf(), 0.0
        plan = [False, True] if trace else [False]
        while True:
            t_iter = perf()
            for traced in plan:
                t_spawn, res = runner.child("run", workload, seed, dirs, f"rep{len(reps)}",
                                            ["--trace"] if traced else [])
                rep = {"res": res, "traced": traced, "metrics": {}}
                if res is not None and res["t_done"] is not None:
                    rep["metrics"] = end_to_end(t_spawn, res)
                    if traced:
                        rep["layers"] = res["layers"]
                reps.append(rep)
            longest = max(longest, perf() - t_iter)
            if perf() - t_loop + longest > seconds or perf() + longest > runner.deadline:
                break
        if not trace and workload in SETUP_FIRST:
            setup_only = top_up_setup(runner, workload, seed, dirs, len(reps))

    registry_path = os.path.join(WORK, "digests.json")
    registry = load_json(registry_path) if os.path.exists(registry_path) else {}
    key = f"{workload}/{size}/seed={seed}/code={src[:16]}"
    checks = evaluate(spec, workload, reps, registry, key)
    if None in setup_only:
        checks["problems"].append("a set-up-only repetition produced no result")
    if prep is None:
        checks["attempted"] = checks["failed"] = len(OPERATIONS[workload])
        checks["problems"].append("input preparation failed")
    if not checks["problems"] and checks["digests"] and key not in registry:
        registry[key] = checks["digests"][0]
        with open(registry_path, "w", encoding="utf-8") as fh:
            json.dump(registry, fh, indent=2, sort_keys=True)

    plain = [r for r in reps if not r["traced"]]
    e2e = {m["name"]: summarize([r["metrics"].get(m["name"]) for r in plain])
           for m in spec["end_to_end"]}
    e2e["setup_s"] = summarize([r["metrics"].get("setup_s") for r in plain] + setup_only)
    layers = None
    if trace:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        layers = {name: summarize([r["layers"][name] for r in traced if name in r["layers"]])
                  for name in layer_names(spec)}
        walls = [summarize([r["metrics"].get("wall_s") for r in group])
                 for group in (traced, plain)]
        layers["synthgen.generate_s"] = summarize([prep["generate_s"]]) if prep else None
        if all(walls):
            layers["trace.overhead_s"] = summarize([walls[0]["median"] - walls[1]["median"]])
    context = next((r["res"]["context"] for r in reps if r["res"]), {"seed": seed})
    summary = {"workload": workload, "seed": seed, "size": size, "trace": trace,
               "seconds": seconds, "repetitions": len(reps), "context": context,
               "end_to_end": e2e, "layers": layers, **checks,
               "generate_s": prep["generate_s"] if prep else None,
               "raw": [{k: r.get(k) for k in ("traced", "metrics", "layers", "digest")}
                       for r in reps], "setup_only_s": setup_only}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    summary["line"] = result_line(summary, spec["bench"])
    return summary


def result_line(summary, bench) -> dict:
    """The contract's last line: gated end-to-end metrics, or per-layer ones."""
    source = summary["layers"] if summary["trace"] else summary["end_to_end"]
    entries = bench["per_layer"] if summary["trace"] else bench["end_to_end"]
    metrics, missing = {}, []
    for m in entries:
        s = (source or {}).get(m["name"])
        if s is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    correct = summary["failed"] == 0 and not summary["problems"] and not missing
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def report(summary, spec) -> None:
    c = summary["context"]
    print(f"perfbench {summary['workload']}: seed={summary['seed']} size={summary['size']} "
          f"trace={int(summary['trace'])} repetitions={summary['repetitions']}")
    print("context: " + json.dumps(c, sort_keys=True))
    print(f"digest: {', '.join(summary['digests']) or 'none'}")
    for p in summary["problems"]:
        print(f"CHECK FAILED: {p}")

    def row(name, s, unit):
        if s is None:
            print(f"  {name:<40}{'n/a':>14}")
        else:
            print(f"  {name:<40}{s['median']:>14.6g}  {unit:<10} q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n={s['n']}")

    print("end-to-end (tracing off, median over repetitions):")
    for m in spec["end_to_end"]:
        row(m["name"], summary["end_to_end"].get(m["name"]), m["unit"])
    if summary["layers"] is not None:
        print("per-layer (traced repetitions):")
        for m in spec["per_layer"]:
            row(m["name"], summary["layers"].get(m["name"]), m["unit"])


def run_and_print(workload, seed, seconds, trace, spec) -> bool:
    summary = run_workload(workload, seed, seconds, trace, "full", spec)
    report(summary, spec)
    print(json.dumps(summary["line"]))
    sys.stdout.flush()
    return summary["line"]["correct"]


# -- self-test -------------------------------------------------------------------------

def self_test(spec) -> bool:
    """Tiny runs of every workload through the same code path, then proof
    that corrupted outputs are counted as failures."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(f"self-test {'ok  ' if cond else 'FAIL'}: {what}")
        ok = ok and cond

    seed = 1
    for workload in WORKLOADS:
        for trace in (False, True):
            s = run_workload(workload, seed, 0, trace, "tiny", spec)
            expect(s["line"]["correct"] and s["failed"] == 0,
                   f"tiny {workload} trace={int(trace)} passes its checks {s['problems']}")
        counted = s["line"]["metrics"]
        expect(counted["models.attn_pairs"]["value"] > 0
               and counted["preprocess.windows_encoded"]["value"] > 0,
               f"traced tiny {workload} counts attention pairs and encoded windows")

    # the quickstart digest equals a plain run_experiment outside the benchmark
    tag = f"quickstart-tiny-seed{seed}"
    direct = os.path.join(WORK, "inputs", f"{tag}-direct")
    shutil.rmtree(direct, ignore_errors=True)
    shutil.copytree(os.path.join(WORK, "inputs", tag), direct,
                    ignore=shutil.ignore_patterns("run"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c",
                    "from tabseq import bench; "
                    "bench.run_experiment(bench.load_experiment_config('exp.json'), 'run')"],
                   cwd=direct, env=env, check=True, stdout=subprocess.DEVNULL)
    plain = digest(load_json(os.path.join(direct, "run", "report.json"))["deterministic"])
    summary = load_json(os.path.join(WORK, "results", f"{tag}-trace0.json"))
    expect(summary["digests"] == [plain],
           "quickstart digest equals a direct run_experiment of the same config")
    shutil.rmtree(direct)

    # corrupted outputs must count as failures, not pass silently
    def rerun_checks(corrupt):
        """Re-check the traced tiny quickstart repetition after ``corrupt``."""
        res = load_json(os.path.join(WORK, "logs", f"{tag}-trace1", "rep1.json"))
        rep = {"res": res, "metrics": end_to_end(res["t_start"], res), "layers": res["layers"]}
        registry = {"k": digest(res["deterministic"])}
        corrupt(rep, registry)
        checks = evaluate(spec, "quickstart", [rep], registry, "k")
        return checks, rep["metrics"]["fail_fraction"]

    clean, fraction = rerun_checks(lambda rep, reg: None)
    expect(clean["failed"] == 0 and not clean["problems"] and fraction == 0,
           "uncorrupted repetition passes")

    def flip_digest(rep, reg):
        reg["k"] = ("0" if reg["k"][0] != "0" else "1") + reg["k"][1:]

    def nan_metric(rep, reg):
        rep["metrics"]["wall_s"] = float("nan")

    def moved_number(rep, reg):
        rep["res"]["deterministic"]["arms"]["hier"]["gini"] += 1e-12

    def attn_mismatch(rep, reg):
        rep["res"]["attn_mismatches"] = ["hierarchical: 1 attention pairs, expected 2"]

    def failed_op(rep, reg):
        rep["res"]["ops"][0] = dict(rep["res"]["ops"][0], ok=False, error="corrupted")

    for corrupt in (flip_digest, nan_metric, moved_number, attn_mismatch, failed_op):
        checks, fraction = rerun_checks(corrupt)
        expect(checks["failed"] > 0 and checks["problems"] and fraction > 0,
               f"{corrupt.__name__} is counted as a failure ({checks['failed']} of "
               f"{checks['attempted']} operations, fail_fraction {fraction:.3g})")
        summary = {"trace": False, "end_to_end": {}, "layers": None, **checks}
        expect(not result_line(summary, {"end_to_end": [], "per_layer": []})["correct"],
               f"{corrupt.__name__} makes the result line incorrect")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", dest="self_test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tabseq", "__init__.py")):
        print(f"perfbench: no tabseq source tree under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.self_test:
        return 0 if self_test(spec) else 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for w in workloads:
        ok = run_and_print(w, args.seed, args.seconds, bool(args.trace), spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
