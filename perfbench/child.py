"""One workload process: ``prepare`` writes a run's inputs, ``run`` times the
workload once in this fresh interpreter and writes a result JSON.

Started by run.py with the BLAS/OpenMP thread caps and ``PYTHONPATH`` set in
its environment before numpy loads. Timestamps are ``time.perf_counter``
values, which on Linux read the system-wide monotonic clock, so run.py
subtracts its own spawn timestamp from them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tabseq.cli  # noqa: E402,F401  (interpreter plus import is set-up time)

T_IMPORTED = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import probes  # noqa: E402
import workloads  # noqa: E402

BLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, asked from the library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_context(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def layer_metrics(probe: probes.Probe) -> dict:
    """Per-layer metrics from the tracer's spans and counters."""
    incl, own = probe.span_times()
    c = probe.counts
    m = {
        "schema.load_csv_s": incl["schema.load_csv"],
        "schema.rows_loaded": c["schema.rows_loaded"],
        "schema.impute_s": incl["schema.impute"],
        "schema.make_windows_s": incl["schema.make_windows"],
        "schema.windows_made": c["schema.windows_made"],
        "preprocess.fit_s": incl["preprocess.fit"],
        "preprocess.encode_tokens_s": incl["preprocess.encode_tokens"],
        "preprocess.encode_numeric_s": incl["preprocess.encode_numeric"],
        "preprocess.windows_encoded": c["preprocess.windows_encoded"],
        "preprocess.cells_encoded": c["preprocess.cells_encoded"],
        "preprocess.cells_per_source_cell":
            c["preprocess.cells_encoded"] / c["source_cells"] if c["source_cells"] else 0.0,
        "models.mlm_loss_s": incl["models.mlm_loss"],
        "models.attn_pairs": c["models.attn_pairs"],
        "nn.backward_s": incl["nn.backward"],
        "nn.backward_calls": c["nn.backward_calls"],
        "nn.tensors_created": c["nn.tensors_created"],
        "nn.matmul_gflop": c["nn.matmul_flop"] / 1e9,
        "nn.optim.step_s": incl["nn.optim.step"],
        "nn.optim.steps": c["nn.optim.steps"],
        "nn.checkpoint.save_s": incl["nn.checkpoint.save"],
        "nn.checkpoint.load_s": incl["nn.checkpoint.load"],
        "nn.checkpoint.bytes": c["nn.checkpoint.bytes"],
        "training.train_windows": c["training.train_windows"],
        "training.epochs_run": c["training.epochs_run"],
        "training.mask_tokens_s": incl["training.mask_tokens"],
        "training.predict_scores_s": incl["training.predict_scores"],
        "training.validate_windows_forwarded": c["training.validate_windows_forwarded"],
        "training.validate_forwards_per_window":
            c["training.validate_windows_forwarded"] / c["val_window_epochs"]
            if c["val_window_epochs"] else 0.0,
        "metrics.rank_metrics_s": incl["metrics.rank_metrics"],
        "metrics.f1_s": incl["metrics.f1"],
        "bench.self_s": own["bench.run_experiment"],
        "bench.write_report_s": incl["bench.write_report"],
        "cli.import_s": T_IMPORTED - T_START,
        "cli.evaluate_s": incl["cli.main"],
    }
    for family in workloads.SCORE_FAMILIES:
        m[f"models.{family}.forward_s"] = incl[f"models.{family}.forward"]
    for span in probes.NN_LAYERS:
        m[f"{span}.forward_s"] = own[span]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("prepare", "run"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, choices=("full", "tiny"))
    p.add_argument("--inputs", required=True, help="directory of this run's inputs")
    p.add_argument("--cache", required=True, help="per-seed fixture directory")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help="stop at the first model step (workloads whose set-up comes first)")
    args = p.parse_args(argv)

    if args.mode == "prepare":
        os.makedirs(args.inputs, exist_ok=True)
        generate_s = workloads.PREPARE[args.workload](args.size, args.seed,
                                                      args.inputs, args.cache)
        result = {"generate_s": generate_s}
    else:
        probe = probes.Probe(trace=args.trace, setup_only=args.setup_only)
        probe.install()
        os.chdir(args.inputs)
        ops, status = [], 0
        try:
            out = workloads.RUN[args.workload](args.size, args.seed, args.cache, ops)
        except probes.SetupComplete:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"t_imported": T_IMPORTED, "stages": dict(probe.stage)}, fh)
            return 0
        except Exception:  # the run's operations fail; the result still gets written
            traceback.print_exc()
            out, status = {"t_done": None, "deterministic": None, "hier_metric_m": None}, 1
        done = {op["name"] for op in ops}
        ops += [{"name": name, "ok": False, "error": "not completed"}
                for name in workloads.OPERATIONS[args.workload] if name not in done]
        result = {
            "t_start": T_START, "t_imported": T_IMPORTED, "t_done": out["t_done"],
            "stages": dict(probe.stage), "scored_windows": probe.scored_windows,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops": ops, "deterministic": out["deterministic"],
            "hier_metric_m": out["hier_metric_m"],
            "context": machine_context(args.seed),
        }
        if args.trace:
            layers = layer_metrics(probe)
            replayed = probes.replay_backward(probe.first_shapes)
            for span in probes.NN_LAYERS:
                layers[f"{span}.backward_s"] = replayed.get(span, 0.0)
            result["layers"] = layers
            result["attn_mismatches"] = probe.attn_mismatches
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return status if args.mode == "run" else 0


if __name__ == "__main__":
    sys.exit(main())
