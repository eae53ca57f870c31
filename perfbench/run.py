#!/usr/bin/env python3
"""End-to-end benchmark of the WYM entity-matching system.

Run from the repository root:

    python3 perfbench/run.py --workload explain-batch --seed 1 --seconds 10 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
runs the traced variant and prints every per-layer metric. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Everything above it (host fingerprint, the named metrics, checks) is
for people. Build products, model files, spans and per-run results
land under .bench_build/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
PERF = os.path.join(CMAKE_DIR, "wym_perf")
SERVE = os.path.join(CMAKE_DIR, "wym_serve")
STEP_TIMEOUT_S = 150
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 3
WORKLOADS = ("explain-batch", "match-tables", "serve-mixed")
# Quality floors: a model below them is broken, not slow.
F1_FLOOR = {"explain-batch": 0.3, "match-tables": 0.6, "serve-mixed": 0.4}
# Rate of the short serve probe that the traced runs of the batch
# workloads send, so every serve-side layer is measured on every workload.
SERVE_PROBE_RATE = "300"
SERVE_PROBE_SECONDS = 2


class BenchError(Exception):
    pass


def log(text):
    print(text, flush=True)


def child_env(threads):
    # Compiler and program temporaries stay inside the checkout too.
    return dict(os.environ, WYM_THREADS=str(threads), TMPDIR=TMP_DIR)


def run_json(argv, threads=1, timeout=STEP_TIMEOUT_S):
    """Runs a wym_perf step; returns the JSON objects it printed."""
    env = child_env(threads)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(argv[:2]), proc.returncode))
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def build():
    for required in ("src/CMakeLists.txt", "tools/wym_serve.cc", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise BenchError("not a WYM checkout (missing %s); run from the repository root"
                             % required)
    os.makedirs(CMAKE_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1),
                      "--target", "wym_perf", "wym_serve_bin"])
        for step in steps:
            if subprocess.run(step, cwd=ROOT, env=child_env(1), stdout=build_log,
                              stderr=subprocess.STDOUT, timeout=840).returncode != 0:
                raise BenchError("build failed; see %s" % log_path)


def setup(args, workload, work):
    result = run_json([PERF, "setup", "--workload", workload, "--work", work,
                       "--reps", str(SETUP_REPS)], args.threads)[-1]
    if not result["model_bytes_identical"]:
        raise BenchError("set-up repetitions saved different model files")
    return result


def batch_pass(args, workload, model, threads, limit=None):
    argv = [PERF, "pass", "--workload", workload, "--seed", str(args.seed),
            "--model", model, "--threads", str(threads)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return run_json(argv, threads)[-1]


class Server:
    """A wym_serve child process on a Unix socket under .bench_build/."""

    def __init__(self, args, model, name, journal=None):
        # Relative path: Unix socket paths are limited to ~100 bytes.
        self.socket = os.path.join(".bench_build", name + ".sock")
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        argv = [SERVE, "--socket", self.socket, "--model", "default=" + model]
        if journal:
            if os.path.exists(journal):
                os.unlink(journal)
            argv += ["--journal", journal]
        self.log = open(os.path.join(BUILD_ROOT, name + ".server.log"), "w")
        started = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(args.server_threads),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        while not os.path.exists(os.path.join(ROOT, self.socket)):
            if self.proc.poll() is not None or time.monotonic() - started > 30:
                self.stop()
                raise BenchError("wym_serve did not start")
            time.sleep(0.002)
        self.start_s = time.monotonic() - started

    def proc_status(self):
        fields = {}
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                key, _, value = line.partition(":")
                fields[key] = value.split()
        return {"peak_rss_mb": int(fields["VmHWM"][0]) / 1024.0,
                "vmsize_mb": int(fields["VmSize"][0]) / 1024.0,
                "threads": int(fields["Threads"][0])}

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def loadgen(args, workload, server, model, rates, seconds, journal=None, spans=None):
    argv = [PERF, "loadgen", "--workload", workload, "--seed", str(args.seed),
            "--model", model, "--socket", server.socket, "--rates", rates,
            "--seconds", str(seconds), "--connections", str(args.connections),
            "--p99-limit-ms", str(args.p99_limit_ms)]
    if journal:
        argv += ["--journal", journal, "--spans", spans]
    return run_json(argv)[-1]


def serve_run(args, workload, model, name, rates, seconds, trace_dir=None):
    """Starts a server, runs the generator against it, stops it."""
    journal = spans = None
    if trace_dir:
        journal = os.path.join(trace_dir, name + ".journal.jsonl")
        spans = os.path.join(trace_dir, name + ".client-spans.jsonl")
    server = Server(args, model, name, journal)
    try:
        result = loadgen(args, workload, server, model, rates, seconds, journal, spans)
        result["server"] = server.proc_status()
        result["server_start_s"] = server.start_s
    finally:
        server.stop()
    return result


def add_serve_checks(served, checks):
    checks["responses_typed_ids_unique"] = served["typed_unique_ids"]
    checks["served_equals_in_process"] = (served["bit_checked"] > 0 and
                                          served["bit_mismatch"] == 0)
    checks["generator_kept_schedule"] = not served["generator_behind"]


def check_digest_history(workload, seed, model, digest, checks):
    """The same model and seed must give the same outputs in every run."""
    with open(model, "rb") as f:
        model_digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD_ROOT, "digests", "%s-seed%d-model%s" % (workload, seed, model_digest))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            checks["digest_same_as_earlier_run"] = f.read().strip() == digest
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")


def run_batch(args, workload, model, deadline, checks):
    """Fresh-process passes until the measuring time is used up."""
    passes = []
    while not passes or len(passes) < 3 or time.monotonic() < deadline:
        passes.append(batch_pass(args, workload, model, args.threads))
    one_thread = batch_pass(args, workload, model, 1, passes[0]["prefix_records"])
    checks["digest_same_across_passes"] = len({p["digest"] for p in passes}) == 1
    checks["digest_same_at_one_thread"] = one_thread["digest"] == passes[0]["prefix_digest"]
    checks["f1_same_across_passes"] = len({p["f1"] for p in passes}) == 1
    checks["f1_above_floor"] = passes[0]["f1"] >= F1_FLOOR[workload]
    check_digest_history(workload, args.seed, model, passes[0]["digest"], checks)
    return passes


def end_to_end(args, workload, work, checks):
    setup_result = setup(args, workload, work)
    model = os.path.join(work, "model.wym")
    setup_s = statistics.median(setup_result["total_s"])
    named = {}
    if workload == "serve-mixed":
        result = serve_run(args, workload, model, "serve-%d" % args.seed, args.rates,
                               args.seconds)
        rates = result["rates"]
        setup_s += result["server_start_s"] + result["warmup_s"]
        add_serve_checks(result, checks)
        checks["f1_above_floor"] = result["f1"] >= F1_FLOOR[workload]
        attempted, failed = result["attempted"], result["failed"]
        for tag, rate in zip(("r1", "r2", "r3"), rates):
            named["serve_p50_ms." + tag] = (rate["p50_ms"], "ms")
            named["serve_p99_ms." + tag] = (rate["p99_ms"], "ms")
        named["serve_max_ok_rps"] = (result["serve_max_ok_rps"], "1/s")
        generic = {"throughput_per_s": result["serve_max_ok_rps"],
                   "f1": result["f1"],
                   "peak_rss_mb": result["server"]["peak_rss_mb"]}
        log("generator: sent/ok/failed per rate " + ", ".join(
            "%g/s %d/%d/%d" % (r["rate"], r["sent"], r["ok"], r["failed"]) for r in rates)
            + "; lag p99 %.3f ms" % result["gen.lag_ms.p99"])
        raw = result
    else:
        deadline = time.monotonic() + args.seconds
        passes = run_batch(args, workload, model, deadline, checks)
        attempted = sum(p["candidates" if workload == "match-tables" else "records"]
                        for p in passes)
        failed = sum(p["quarantined"] for p in passes)
        rate = statistics.median([p["rate"] for p in passes])
        prefix = "explain" if workload == "explain-batch" else "match"
        unit = "rec/s" if workload == "explain-batch" else "rows/s"
        named[prefix + ("_rec_per_s" if prefix == "explain" else "_rows_per_s")] = (rate, unit)
        named[prefix + "_f1"] = (passes[0]["f1"], "ratio")
        generic = {"throughput_per_s": rate,
                   "f1": passes[0]["f1"],
                   "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes])}
        log("passes: %d, %s per pass: %s" % (len(passes), unit, ", ".join(
            "%.0f" % p["rate"] for p in passes)))
        raw = passes
    checks["setup_models_identical"] = setup_result["model_bytes_identical"]
    generic["setup_s"] = setup_s
    generic["ok_share"] = 1.0 - failed / attempted
    named["setup_s"] = (setup_s, "s")
    named["peak_rss_mb"] = (generic["peak_rss_mb"], "MiB")
    named["fail_share"] = (failed / attempted, "ratio")
    for name, (value, unit) in named.items():
        log("  %-22s %14.6g %s" % (name, value, unit))
    return generic, attempted, failed, {"setup": setup_result, "run": raw}


def traced(args, workload, work, checks):
    trace_dir = os.path.join(BUILD_ROOT, "trace", "%s-seed%d" % (workload, args.seed))
    os.makedirs(trace_dir, exist_ok=True)
    setup_result = setup(args, workload, work)
    model = os.path.join(work, "model.wym")
    layers = {}
    attempted = failed = 0
    for stage in ("generate", "fit", "save", "load"):
        layers["setup." + stage + "_s"] = statistics.median(setup_result[stage + "_s"])

    in_process = run_json([PERF, "trace", "--workload", workload, "--seed", str(args.seed),
                           "--model", model, "--threads", str(args.threads),
                           "--spans", os.path.join(trace_dir, "spans.jsonl")], args.threads)
    trace = in_process[-1]
    layers.update({k: v for k, v in trace.items() if k != "phase" and not k.startswith("traced.")})
    overhead = {}
    if workload == "serve-mixed":
        untraced = serve_run(args, workload, model, "untraced-%d" % args.seed, args.rates,
                                 args.seconds)
        served = serve_run(args, workload, model, "traced-%d" % args.seed, args.rates,
                                args.seconds, trace_dir)
        for tag, before, after in zip(("r1", "r2", "r3"), untraced["rates"], served["rates"]):
            overhead["serve_p50_ms." + tag] = (before["p50_ms"], after["p50_ms"])
    else:
        untraced = batch_pass(args, workload, model, args.threads)
        attempted = untraced["candidates" if workload == "match-tables" else "records"]
        failed = untraced["quarantined"]
        if workload == "explain-batch":
            overhead["explain_rec_per_s"] = (untraced["rate"], trace["traced.explain_rec_per_s"])
        else:
            overhead["match_rows_per_s"] = (untraced["rate"], trace["traced.match_rows_per_s"])
            checks["traced_matches_equal_untraced"] = in_process[0]["digest"] == untraced["digest"]
        served = serve_run(args, workload, model, "probe-%d" % args.seed, SERVE_PROBE_RATE,
                                SERVE_PROBE_SECONDS, trace_dir)
    layers["setup.warmup_s"] = served["server_start_s"] + served["warmup_s"]
    add_serve_checks(served, checks)
    checks["journal_joined_every_request"] = served["journal_joined"] == served["attempted"]
    for key, value in served.items():
        if key.startswith("gen.") or key.startswith("serve."):
            layers[key] = value
    layers["serve.threads_end"] = served["server"]["threads"]
    layers["serve.vmsize_mb_end"] = served["server"]["vmsize_mb"]
    for name, (before, after) in overhead.items():
        log("trace overhead %-20s untraced %.6g  traced %.6g  (%+.2f%%)" % (
            name, before, after, 100.0 * (after - before) / before))
    log("spans written under %s" % os.path.relpath(trace_dir, ROOT))
    attempted += served["attempted"]
    failed += served["failed"]
    return layers, attempted, failed, {
        "setup": setup_result, "trace": trace, "serve": served, "overhead": overhead}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2,
                        help="pool threads of the in-process workloads")
    parser.add_argument("--server-threads", type=int, default=2,
                        help="wym_serve pool threads (the generator adds one)")
    parser.add_argument("--connections", type=int, default=4,
                        help="persistent generator connections")
    parser.add_argument("--rates", default="300,900,1500",
                        help="offered rates r1,r2,r3 in requests/s")
    parser.add_argument("--p99-limit-ms", type=float, default=200.0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        nproc = os.cpu_count() or 1
        args.threads = min(args.threads, nproc)
        args.server_threads = max(1, min(args.server_threads, nproc - 1))
        args.connections = min(args.connections, nproc)
        fingerprint = run_json([PERF, "fingerprint", "--threads", str(args.threads)])[-1]
        fingerprint.update({"threads": args.threads, "server_threads": args.server_threads,
                            "connections": args.connections, "seed": args.seed,
                            "workload": args.workload, "trace": args.trace})
        log("host " + " ".join("%s=%s" % (k, v) for k, v in fingerprint.items()
                               if k != "phase"))
        work = os.path.join(BUILD_ROOT, "work", "%s-seed%d" % (args.workload, args.seed))
        os.makedirs(work, exist_ok=True)
        checks = {}
        if args.trace:
            values, attempted, failed, raw = traced(args, args.workload, work, checks)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, raw = end_to_end(args, args.workload, work, checks)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1

    correct = all(checks.values())
    for name, passed in checks.items():
        log("check %-36s %s" % (name, "ok" if passed else "FAILED"))
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"fingerprint": fingerprint, "checks": checks, "metrics": metrics,
                   "raw": raw}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
