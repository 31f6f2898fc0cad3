#!/usr/bin/env python3
"""The TraceLens benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload batch|interactive|cluster \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (the
tracelens library and CLI plus perfbench_probe) in Release into
.bench_build/; later runs reuse it. Inputs are generated from --seed
with `tracelens generate`; the system under test runs as `tracelens
serve` child processes; load comes from one perfbench_probe process
with at most nproc connections. Every answer is checked (see
README.md). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric when --trace 0 and every per-layer metric
when --trace 1. Everything else (units, sample counts, unsupported
tails, error codes, generator lateness, run metadata) is printed
before it and saved under .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
CLI = BUILD / "tracelens_tools" / "tracelens"
PROBE = BUILD / "perfbench_probe"

WORKLOADS = ("batch", "interactive", "cluster")
# Seed no tuning run used; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
NPROC = os.cpu_count() or 1

SHARDS = 16
# Set-ups per --trace 0 run; setup_s is their median. batch's set-up
# is one short corpus generation, so it takes more of them.
SETUPS = {"batch": 9, "interactive": 3, "cluster": 3}
BATCH_MACHINES = 1000
QUERY_MACHINES = 1000
INTERACTIVE_RATE = 400.0  # requests/s, the interactive reference rate
# requests/s through the coordinator. At 40, about what it sustains
# today, hits queued behind its slow impact gathers and hit p50 rose by
# a fifth when one other process took a core.
CLUSTER_RATE = 20.0
EXPLORE_SHARE = 0.1
LADDER = (2, 4, 8)  # multiples of the reference rate for max_rate_rps
LADDER_SECONDS = 1.0
# The hit latency limit max_rate_rps is judged against.
HIT_P99_LIMIT_US = {"interactive": 50000.0, "cluster": 250000.0}
PROBE_SCENARIO = "WebPageNavigation"
GENERATOR_LAG_LIMIT_MS = 20.0  # generator p99 lateness that voids a run

# Metric names and units come from BENCHMARK.json at the checkout root.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """A failure that ends the run without a result."""


# ------------------------------------------------------------ processes

LIVE = []  # daemons still running; stopped on every exit path


def run_tool(args, timeout=170):
    result = subprocess.run([str(a) for a in args], capture_output=True,
                            text=True, timeout=timeout, cwd=ROOT)
    if result.returncode != 0:
        raise BenchError("%s exited %d: %s" % (
            Path(str(args[0])).name, result.returncode,
            (result.stderr or result.stdout)[-2000:]))
    return result


class Daemon:
    """One `tracelens serve` child on an ephemeral localhost port."""

    def __init__(self, work, name, args):
        self.name = name
        port_file = work / (name + ".port")
        if port_file.exists():
            port_file.unlink()  # an earlier set-up's daemon wrote it
        self.log_path = work / (name + ".log")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [str(CLI), "serve", "--listen", "127.0.0.1:0",
                 "--port-file", str(port_file), "--flight-recorder",
                 "65536"] + [str(a) for a in args],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        LIVE.append(self)
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise BenchError("%s exited at start: %s" % (
                    name, self.log_path.read_text()[-2000:]))
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                return
            if time.monotonic() > deadline:
                raise BenchError("%s did not publish a port" % name)
            time.sleep(0.005)

    @property
    def address(self):
        return "127.0.0.1:%d" % self.port

    def peak_rss_mb(self):
        for line in Path("/proc/%d/status" % self.proc.pid).read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for %s" % self.name)

    def cpu_s(self):
        fields = Path("/proc/%d/stat" % self.proc.pid).read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def query(self, method, params=None):
        args = [CLI, "query", method, "--connect", self.address, "--no-trace"]
        if params is not None:
            args += ["--params", json.dumps(params)]
        return json.loads(run_tool(args, timeout=60).stdout)

    def stop(self):
        if self in LIVE:
            LIVE.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("%s did not drain on SIGTERM" % self.name)
        if self.proc.returncode != 0:
            raise BenchError("%s exited %d: %s" % (
                self.name, self.proc.returncode,
                self.log_path.read_text()[-2000:]))


def stop_all():
    for daemon in list(LIVE):
        if daemon.proc.poll() is None:
            daemon.proc.kill()
        daemon.proc.wait()
        LIVE.remove(daemon)


def run_child_measured(args, out_path):
    """Run a CLI child with stdout to out_path.

    Returns (wall ms, cpu ms, peak rss MB) of that child alone, from
    its own rusage.
    """
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen([str(a) for a in args], stdout=out,
                                stderr=subprocess.DEVNULL, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = (time.monotonic() - start) * 1000.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (Path(str(args[0])).name,
                                           proc.returncode))
    return wall, (usage.ru_utime + usage.ru_stime) * 1000.0, \
        usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- build


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = ROOT / ".bench_build" / "perfbench-build.log"
    with open(log, "a") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=out,
                stderr=subprocess.STDOUT, cwd=ROOT)
            if configure.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError("cmake configure failed; see %s" % log)
        made = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(NPROC), "--target",
             "tracelens_cli", "perfbench_probe"], stdout=out,
            stderr=subprocess.STDOUT, cwd=ROOT)
    if made.returncode != 0:
        raise BenchError("build failed; see %s" % log)


def metadata(seed):
    cache = (BUILD / "CMakeCache.txt").read_text()
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    version = subprocess.run([compiler.group(1) if compiler else "c++",
                              "--version"], capture_output=True, text=True)
    digest = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=ROOT)
    return {
        "nproc": NPROC,
        "build_type": re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache,
                                re.M).group(1),
        "compiler": version.stdout.splitlines()[0] if version.stdout else "?",
        "git_commit": commit.stdout.strip() if commit.returncode == 0
        else "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------- inputs


def generate(out_dir, machines, seed):
    """Generate a corpus directory of SHARDS shards; returns its size and
    the time it took."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.monotonic()
    result = run_tool([CLI, "generate", "--out", out_dir, "--machines",
                       machines, "--seed", seed, "--shards", SHARDS])
    took = time.monotonic() - start
    match = re.search(r"wrote (\d+) streams / (\d+) instances / (\d+) events",
                      result.stdout + result.stderr)
    if not match:
        raise BenchError("generate printed no corpus size")
    return {
        "streams": int(match.group(1)),
        "instances": int(match.group(2)),
        "events": int(match.group(3)),
        "shards": SHARDS,
        "bytes": sum(p.stat().st_size for p in Path(out_dir).glob("*.tlc")),
    }, took


def thresholds(corpus):
    """Data-derived (T_fast, T_slow) per scenario, in corpus order."""
    text = run_tool([CLI, "thresholds", corpus]).stdout
    found = {}
    for m in re.finditer(r"^(\w+): .*T_fast=([\d.]+)ms T_slow=([\d.]+)ms$",
                         text, re.M):
        found[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    if PROBE_SCENARIO not in found:
        raise BenchError("corpus lacks the probe scenario")
    return found


class Item:
    """One planned request."""

    __slots__ = ("offset_us", "conn", "cls", "method", "params", "key")

    def __init__(self, offset_us, conn, cls, method, params):
        self.offset_us = int(offset_us)
        self.conn = conn
        self.cls = cls
        self.method = method
        self.params = params
        self.key = method + " " + json.dumps(params, sort_keys=True)

    def line(self):
        return "%d\t%d\t%s\t%s\t%s" % (self.offset_us, self.conn, self.cls,
                                       self.method, json.dumps(self.params))


def catalog(corpus, scenarios):
    """Every distinct cacheable query over the corpus."""
    items = [("impact", {"corpus": corpus})]
    for name in scenarios:
        items.append(("analyze", {"corpus": corpus, "scenario": name}))
        items.append(("mine", {"corpus": corpus, "scenario": name}))
    return items


def pick_hit(rng, hits):
    """One cached query: analyze 70%, mine 20%, impact 10%.

    analyze answers are small and mine answers large, so their
    latencies form two modes; with analyze dominant the median falls
    inside one mode instead of on the boundary, where it would jump
    between runs.
    """
    draw = rng.random()
    method = "analyze" if draw < 0.7 else "mine" if draw < 0.9 else "impact"
    return rng.choice([h for h in hits if h[0] == method])


class Explores:
    """analyze/mine queries with thresholds no earlier query used.

    Scenarios come round in turn (a seeded order) and the method
    alternates, so every run explores the same mix; scenarios differ
    in cost by an order of magnitude.
    """

    def __init__(self, rng, corpus, limits):
        self.rng = rng
        self.corpus = corpus
        self.limits = limits
        self.names = sorted(limits)
        rng.shuffle(self.names)
        self.turn = 0
        self.used = set()

    def __call__(self):
        while True:
            name = self.names[self.turn % len(self.names)]
            method = ("analyze", "mine")[(self.turn // len(self.names)) % 2]
            self.turn += 1
            fast, slow = self.limits[name]
            tfast = round(fast * self.rng.uniform(0.6, 1.0), 4)
            tslow = round(slow * self.rng.uniform(1.0, 1.5), 4)
            key = (method, name, tfast, tslow)
            if key not in self.used and tfast < tslow:
                self.used.add(key)
                return method, {"corpus": self.corpus, "scenario": name,
                                "tfast_ms": tfast, "tslow_ms": tslow}


def open_loop(rng, hits, explores, rate, seconds, connections=NPROC):
    """Poisson arrivals at rate over connections (at most nproc).

    Explores go to the last connection and hits to the others; with a
    single connection both share it. A connection sends its next
    request only once the previous answer is in, so where there are two
    or more, the slow explores get a connection of their own and do not
    hold hits back in the generator.
    """
    hit_conns = max(1, connections - 1)
    items = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return items
        if rng.random() < EXPLORE_SHARE:
            method, params = explores()
            items.append(Item(t * 1e6, connections - 1, "explore", method,
                              params))
        else:
            method, params = pick_hit(rng, hits)
            items.append(Item(t * 1e6, rng.randrange(hit_conns), "hit",
                              method, params))


def closed(pairs, cls):
    """Send everything at once, spread over the connections."""
    return [Item(0, i % NPROC, cls, m, p) for i, (m, p) in enumerate(pairs)]


# ------------------------------------------------------------ load runs


class Run:
    """State of one benchmark run: work dir, ledger, findings."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / ("%s-%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.ledger = stats.Ledger()
        self.wrong = []  # descriptions of wrong answers
        self.report = []  # human-readable lines
        self.record = {}  # everything, saved as JSON
        self.spans = []  # (name, parent, start_us, end_us)
        self.origin = time.monotonic()
        self.load_calls = 0

    def now_us(self):
        return int((time.monotonic() - self.origin) * 1e6)

    def span(self, name):
        self.spans.append([name, -1, self.now_us(), -1])
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][3] = self.now_us()

    def say(self, text):
        self.report.append(text)

    def wrong_answer(self, phase, what):
        self.ledger.record(phase, "wrong_answer")
        self.wrong.append(what)

    def load(self, daemon, items, phase, trace=False, max_late_ms=None):
        """Replay items against daemon; returns rows and wire summary.

        With max_late_ms, requests a lagging connection gave up on are
        never sent: they are rows with send -1, not operations.
        """
        self.load_calls += 1
        tag = "load%d" % self.load_calls
        plan = self.work / (tag + ".plan")
        plan.write_text("".join(i.line() + "\n" for i in items))
        out = self.work / (tag + ".out")
        args = [PROBE, "load", "--port", daemon.port, "--plan", plan,
                "--out", out, "--trace", "1" if trace else "0",
                "--trace-base", self.load_calls << 32]
        if max_late_ms is not None:
            args += ["--max-late-ms", max_late_ms]
        span = self.span("workload." + phase)
        start_us = self.now_us()
        result = run_tool(args)
        self.end(span)
        wire = json.loads(result.stdout.strip().splitlines()[-1])
        rows = []
        for line in out.read_text().splitlines():
            f = line.split("\t")
            item = items[int(f[0])]
            row = {"item": item, "conn": int(f[1]), "cls": f[2],
                   "sched": int(f[3]), "send": int(f[4]), "done": int(f[5]),
                   "status": f[6], "digest": f[7], "bytes": int(f[8]),
                   "trace_id": (self.load_calls << 32) + int(f[0]) + 1}
            rows.append(row)
            if max_late_ms is None or row["send"] >= 0:
                self.ledger.record(phase, row["status"])
            if trace and row["send"] >= 0:
                # Client-side request spans, parented on the phase span.
                # The probe's clock starts 50 ms after its connections
                # are up; its own start-up is not counted here.
                self.spans.append(["client." + item.method, span,
                                   start_us + 50000 + row["send"],
                                   start_us + 50000 + row["done"]])
        return rows, wire


def latencies_ms(rows, cls):
    """Latency from each request's scheduled send, failures as inf."""
    ok = [(r["done"] - r["sched"]) / 1000.0 for r in rows
          if r["cls"] == cls and r["status"] == "ok"]
    failed = sum(1 for r in rows if r["cls"] == cls and r["status"] != "ok")
    return stats.with_failures(ok, failed)


def generator_lag(rows):
    """How late the generator sent, when nothing but itself held it up.

    A connection is busy until its previous response is in; lateness
    while busy is the system's and is counted in latency. Returns (lag
    p50 ms, lag p99 ms, share of sends that waited on a busy connection).
    """
    lags, blocked = [], 0
    by_conn = {}
    for r in sorted(rows, key=lambda r: (r["conn"], r["sched"])):
        if r["send"] < 0:
            continue
        free = max(r["sched"], by_conn.get(r["conn"], 0))
        blocked += by_conn.get(r["conn"], 0) > r["sched"]
        lags.append((r["send"] - free) / 1000.0)
        by_conn[r["conn"]] = r["done"]
    if not lags:
        return 0.0, 0.0, 0.0
    return (stats.median(lags), stats.percentile(lags, 99)[0],
            blocked / len(lags))


def check_lag(run, rows, phase):
    p50, p99, blocked = generator_lag(rows)
    run.record.setdefault("generator", {}).setdefault(phase, []).append({
        "lag_p50_ms": p50, "lag_p99_ms": p99, "busy_share": blocked})
    run.say("generator %-8s lag p50 %.3f ms, p99 %.3f ms; %.1f%% of sends "
            "waited on a busy connection" % (phase, p50, p99, 100 * blocked))
    if p99 > GENERATOR_LAG_LIMIT_MS:
        run.wrong.append("generator fell behind its schedule in %s (lag p99 "
                         "%.1f ms > %.1f ms): run invalid" %
                         (phase, p99, GENERATOR_LAG_LIMIT_MS))


def stat_lines(run, name, unit, values, scale, ps):
    scaled = [v * scale for v in values]
    for p in ps:
        stat = stats.Stat("%s_p%g_%s" % (name, p, unit), unit, scaled, p)
        run.say("  %-22s %s" % (stat.name, stat.text()))


def tail_line(run, name, unit, values, scale):
    """The highest supported tail, or unsupported with its count."""
    p = stats.highest_tail([v * scale for v in values], stats.TAIL_LADDER[:-1])
    if p is None:
        run.say("  %-22s unsupported (n=%d)" % (name + "_tail_" + unit,
                                                len(values)))
        return
    stat_lines(run, name, unit, values, scale, (p,))


def daemon_layers(run, daemon, rows, wire):
    """server.* and pool.* per-layer metrics read from the daemon."""
    records = daemon.query("flight_recorder")["records"]
    by_trace = {int(r["trace_id"], 16): r for r in records if "trace_id" in r}
    waits, service, wire_us = [], [], []
    for row in rows:
        rec = by_trace.get(row["trace_id"])
        if rec is None or row["status"] != "ok":
            continue
        waits.append(rec["queue_wait_us"])
        service.append(rec["total_us"] - rec["queue_wait_us"])
        wire_us.append(max(0.0, (row["done"] - row["send"]) - rec["total_us"]))
    if not waits:
        raise BenchError("no flight-recorder record matched a request")
    snapshot = daemon.query("metrics")
    metrics = snapshot["counters"]
    sent = sum(1 for r in rows if r["send"] >= 0)
    run.say("  server: %d requests matched in the flight recorder; sessions "
            "opened %d, evicted %d" % (
                len(waits), metrics.get("server.sessions.opened", 0),
                metrics.get("server.sessions.evicted", 0)))
    tail_line(run, "server.queue_wait", "us", waits, 1.0)
    if run.workload == "cluster":
        fanout = [r.get("fanout", 0) for r in records if r.get("fanout")]
        run.say("  coordinator.fanout      %.3g sub-requests per gather (n=%d)"
                % (stats.median(fanout) if fanout else 0, len(fanout)))
    return {
        "server.queue_wait_p50_us": stats.median(waits),
        "server.service_p50_us": stats.median(service),
        "server.wire_p50_us": stats.median(wire_us),
        "server.wire_bytes_per_req": (wire["bytes_sent"] +
                                      wire["bytes_received"]) / max(1, sent),
        "server.sessions_opened": metrics.get("server.sessions.opened", 0),
        "pool.steals": metrics.get("pool.steals", 0),
    }


def probe_layers(run, corpus, limits):
    tfast, tslow = limits[PROBE_SCENARIO]
    spans_file = run.work / "probe.spans"
    span = run.span("probe")
    start = run.now_us()
    result = run_tool([PROBE, "layers", "--corpus", corpus, "--scenario",
                       PROBE_SCENARIO, "--tfast", tfast, "--tslow", tslow,
                       "--spans", spans_file, "--fleet-spool",
                       run.work / "probe-spool"])
    run.end(span)
    base = len(run.spans)
    for line in spans_file.read_text().splitlines():
        name, parent, s, e = line.split("\t")
        parent = int(parent)
        run.spans.append([name, span if parent < 0 else base + parent,
                          start + int(s), start + int(e)])
    return json.loads(result.stdout.strip().splitlines()[-1])


def reference_check(run, corpus, answers):
    """Compare daemon analyze digests with the in-process reference.

    answers maps (scenario, tfast text, tslow text) to a digest.
    """
    requests = run.work / "reference.tsv"
    keys = sorted(answers)
    requests.write_text("".join("%s\t%s\t%s\n" % k for k in keys))
    out = run.work / "reference.out"
    run_tool([PROBE, "reference", "--corpus", corpus, "--requests", requests,
              "--out", out])
    expected = {}
    for line in out.read_text().splitlines():
        scenario, tfast, tslow, digest = line.split("\t")
        expected[(scenario, tfast, tslow)] = digest
    for key in keys:
        run.ledger.record("check", "ok" if expected.get(key) == answers[key]
                          else "wrong_answer")
        if expected.get(key) != answers[key]:
            run.wrong.append("analyze %s differs from the in-process "
                             "reference" % (key,))
    run.say("check: %d analyze answers against the in-process reference"
            % len(keys))


def analyze_answers(rows, limit):
    """Up to limit analyze answers keyed as reference_check wants."""
    answers = {}
    for row in rows:
        item = row["item"]
        if item.method != "analyze" or row["status"] != "ok":
            continue
        p = item.params
        key = (p["scenario"], repr(p["tfast_ms"]) if "tfast_ms" in p else "",
               repr(p["tslow_ms"]) if "tslow_ms" in p else "")
        answers.setdefault(key, row["digest"])
        if len(answers) >= limit:
            break
    return answers


# ------------------------------------------------------------- workloads


def setups(run, once):
    """Run the set-up SETUPS times (once when tracing); keep the last.

    once(keep) performs one set-up and returns (seconds, state): the
    seconds cover generation, daemon start and warm-up, not the
    benchmark's own input bookkeeping. When keep is False it tears its
    state down.
    """
    count = 1 if run.trace else SETUPS[run.workload]
    times, state = [], None
    for i in range(count):
        # Untimed: no writeback from the last set-up is left to compete.
        os.sync()
        span = run.span("workload.setup")
        seconds, state = once(i == count - 1)
        times.append(seconds)
        run.end(span)
    run.record["setup_s_samples"] = times
    return stats.median(times), state


def overhead_pct(run, what, untraced, traced):
    """Tracing overhead: traced median over untraced median, in percent."""
    plain, with_trace = stats.median(untraced), stats.median(traced)
    pct = 100.0 * (with_trace - plain) / plain
    run.say("tracing overhead: %s p50 %.4g ms traced (n=%d) vs %.4g ms "
            "untraced (n=%d): %+.2f%%" % (what, with_trace, len(traced),
                                          plain, len(untraced), pct))
    return pct


def batch(run):
    corpus = run.work / "corpus"
    gen_times = []

    def once(keep):
        size, took = generate(corpus, BATCH_MACHINES, run.seed)
        gen_times.append(took)
        run.record["corpus"] = size
        return took, size

    setup_s, size = setups(run, once)
    limits = thresholds(corpus)

    # The reference is the serial report; every later report, parallel
    # or serial, must equal it byte for byte.
    reference_file = run.work / "reference.txt"
    run_child_measured([CLI, "report", corpus, "--threads", "1"],
                       reference_file)
    reference = reference_file.read_bytes()
    run.ledger.record("setup", "ok")
    peak = [0.0]

    def report(threads, phase, traced=False):
        """One checked cold report; returns its wall and CPU ms."""
        out = run.work / "report.txt"
        args = [CLI, "report", corpus, "--threads", threads]
        if traced:
            args += ["--trace-out", run.work / "report.trace.json"]
        span = run.span("workload.report")
        wall, used, rss = run_child_measured(args, out)
        run.end(span)
        peak[0] = max(peak[0], rss)
        if out.read_bytes() == reference:
            run.ledger.record(phase, "ok")
        else:
            run.wrong_answer(phase, "report --threads %s%s differs from the "
                             "--threads 1 reference" % (
                                 threads, " --trace-out" if traced else ""))
        return wall, used

    end = time.monotonic() + run.seconds
    if run.trace:
        # The all-threads report with and without --trace-out (which
        # records the pipeline's spans), alternating which goes first.
        untraced, traced = [], []
        while time.monotonic() < end or not traced:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for flag in order:
                wall, _ = report("0", "traced" if flag else "untraced", flag)
                (traced if flag else untraced).append(wall)
        run.say("batch: cold report, all threads, with and without "
                "--trace-out alternately")
        layers = traced_common(run, corpus, limits, gen_times)
        layers["tracing.overhead_pct"] = overhead_pct(run, "report",
                                                      untraced, traced)
        # No daemon is on the batch path; serve the report-equivalent
        # queries once so the server layer is read for every workload.
        daemon = Daemon(run.work, "served", [])
        items = closed(catalog(str(corpus), sorted(limits)), "served")
        rows, wire = run.load(daemon, items, "served", trace=True)
        layers.update(daemon_layers(run, daemon, rows, wire))
        daemon.stop()
        return {}, layers

    par, ser, cpu = [], [], []
    while time.monotonic() < end or not ser:
        wall, used = report("0", "measure")
        par.append(wall)
        cpu.append(used)
        ser.append(report("1", "measure")[0])
    run.say("batch: cold report, all threads and --threads 1 alternately")
    events_per_s = [size["events"] / (ms / 1000.0) for ms in par]
    run.say("  %-22s %.6g events/s (median, n=%d)" % (
        "batch_events_per_s", stats.median(events_per_s), len(par)))
    stat_lines(run, "report", "ms", par, 1.0, (50.0,))
    stat_lines(run, "report_serial", "ms", ser, 1.0, (50.0,))
    return {
        "setup_s": setup_s,
        "primary_p50_ms": stats.median(par),
        "secondary_p50_ms": stats.median(ser),
        "cpu_ms_per_op": stats.median(cpu),
        "rss_mb": peak[0],
    }, {}


def queries(run, cluster):
    corpus = run.work / "corpus"
    gen_times = []
    rng = random.Random(run.seed)
    limits = {}
    hits = []

    def start(tag, traced):
        """Start the daemons and warm every catalog query cold.

        traced daemons record their spans (--trace-out); with cluster,
        every worker and the coordinator do.
        """
        def daemon(name, args):
            if traced:
                args = args + ["--trace-out", run.work / (name + ".trace")]
            return Daemon(run.work, name + tag, args)

        if cluster:
            # Room for every shard's session: with the default of 8, a
            # worker owning more than 8 of the 16 shards evicts and
            # reopens sessions on every gather.
            workers = [daemon("worker%d" % i, ["--max-sessions", 4 * SHARDS])
                       for i in range(2)]
            daemons = workers + [daemon(
                "coordinator", ["--coordinator", "--cluster-workers",
                                ",".join(w.address for w in workers)])]
        else:
            daemons = [daemon("daemon", [])]
        rows, _ = run.load(daemons[-1], closed(hits, "warm"), "setup")
        return daemons, rows

    def once(keep):
        size, took = generate(corpus, QUERY_MACHINES, run.seed)
        gen_times.append(took)
        run.record["corpus"] = size
        if not limits:
            # Input bookkeeping, untimed.
            limits.update(thresholds(corpus))
            hits.extend(catalog(str(corpus), sorted(limits)))
        begin = time.monotonic()
        daemons, rows = start("", False)
        took += time.monotonic() - begin
        if not keep:
            for d in daemons:
                d.stop()
        return took, (daemons, rows)

    setup_s, (daemons, warm_rows) = setups(run, once)
    entry = daemons[-1]
    warm = {r["item"].key: r["digest"] for r in warm_rows}
    explores = Explores(rng, str(corpus), limits)
    rate = CLUSTER_RATE if cluster else INTERACTIVE_RATE

    def measure(target, items, phase, trace=False):
        cpu0 = sum(d.cpu_s() for d in target)
        rows, wire = run.load(target[-1], items, phase, trace=trace)
        cpu = (sum(d.cpu_s() for d in target) - cpu0) * 1000.0
        for row in rows:
            if row["cls"] == "hit" and row["status"] == "ok" and \
                    row["digest"] != warm[row["item"].key]:
                run.wrong_answer("check", "hit %s differs from its cold "
                                 "answer" % row["item"].key)
        check_lag(run, rows, phase)
        return rows, wire, cpu / max(1, len(rows))

    layers = {}
    if run.trace:
        # The same two schedules go to the untraced daemons and to a
        # second, traced set (client trace context plus daemon spans),
        # in the order untraced, traced, traced, untraced. Each set
        # sees each schedule once, so explores stay uncached on both.
        traced_set, _ = start("-traced", True)
        rows, traced_rows, wire = [], [], {}
        for first_traced in (False, True):
            items = open_loop(rng, hits, explores, rate, run.seconds / 4.0)
            for traced in (first_traced, not first_traced):
                if traced:
                    got, got_wire, _ = measure(traced_set, items, "traced",
                                               True)
                    traced_rows += got
                    for k, v in got_wire.items():
                        wire[k] = wire.get(k, 0) + v
                else:
                    rows += measure(daemons, items, "measure")[0]
        plain = {r["item"].key: r["digest"] for r in rows
                 if r["status"] == "ok"}
        for row in traced_rows:
            key = row["item"].key
            if row["status"] == "ok" and plain.get(key, row["digest"]) != \
                    row["digest"]:
                run.wrong_answer("check", "traced answer to %s differs from "
                                 "the untraced one" % key)
        layers = traced_common(run, corpus, limits, gen_times)
        layers["tracing.overhead_pct"] = overhead_pct(
            run, "hit", latencies_ms(rows, "hit"),
            latencies_ms(traced_rows, "hit"))
        layers.update(daemon_layers(run, traced_set[-1], traced_rows, wire))
        for d in traced_set:
            d.stop()
    else:
        rows, _, cpu_per_op = measure(daemons, open_loop(
            rng, hits, explores, rate, run.seconds), "measure")

    hit = latencies_ms(rows, "hit")
    explore = latencies_ms(rows, "explore")
    run.say("%s: open loop at %g req/s, %.0f%% explores, %d connections; "
            "corpus %d events" % (run.workload, rate, 100 * EXPLORE_SHARE,
                                  NPROC, run.record["corpus"]["events"]))
    stat_lines(run, "hit", "us", hit, 1000.0, (50.0, 99.0))
    stat_lines(run, "explore", "ms", explore, 1.0, (50.0, 95.0))
    for cls in ("hit", "explore"):
        run.say("  %s p50 by method: %s" % (cls, ", ".join(
            "%s %.4g ms (n=%d, %.0f B)" % (
                m, stats.median(v), len(v), stats.median(b)) for m, v, b in (
                (m, [(r["done"] - r["sched"]) / 1000.0 for r in rows
                     if r["cls"] == cls and r["item"].method == m],
                 [r["bytes"] for r in rows
                  if r["cls"] == cls and r["item"].method == m])
                for m in ("analyze", "mine", "impact")) if v)))
    run.say("  %-22s %.4g (n=%d)" % ("failed_share",
                                     run.ledger.failed_share("measure"),
                                     run.ledger.attempted("measure")))
    if not run.trace:
        max_rate(run, entry, hits, explores, rate)

    # Correctness beyond the hit-vs-cold comparison above.
    answers = analyze_answers(warm_rows, 1000)
    answers.update(analyze_answers([r for r in rows if r["cls"] == "explore"],
                                   8))
    reference_check(run, str(corpus), answers)
    if cluster:
        single_node_check(run, rows + warm_rows)

    e2e = {}
    if not run.trace:
        e2e = {
            "setup_s": setup_s,
            "primary_p50_ms": stats.median(hit),
            "secondary_p50_ms": stats.median(explore),
            "cpu_ms_per_op": cpu_per_op,
            "rss_mb": sum(d.peak_rss_mb() for d in daemons),
        }
    for d in daemons:
        d.stop()
    return e2e, layers


def max_rate(run, entry, hits, explores, rate):
    """Highest ladder rate whose hit p99 meets the limit without backlog."""
    limit = HIT_P99_LIMIT_US[run.workload]
    best = None
    for factor in LADDER:
        step = rate * factor
        items = open_loop(random.Random(run.seed + factor), hits, explores,
                          step, LADDER_SECONDS)
        rows, _ = run.load(entry, items, "ladder", max_late_ms=1000)
        unsent = sum(1 for r in rows if r["send"] < 0)
        hit = [v * 1000.0 for v in latencies_ms(rows, "hit")]
        # p99 when the rung has the samples for it, else its highest
        # supported tail.
        tail = stats.highest_tail(hit, stats.TAIL_LADDER[1:-1])
        p99 = stats.percentile(hit, tail)[0] if tail else math.inf
        # Backlog grows when the last sends trail their schedule by more
        # than the first ones did.
        lateness = [(r["send"] - r["sched"]) / 1000.0 for r in rows
                    if r["send"] >= 0]
        tenth = max(1, len(lateness) // 10)
        growing = stats.median(lateness[-tenth:]) > \
            stats.median(lateness[:tenth]) + 5.0
        meets = math.isfinite(p99) and p99 <= limit and not growing and \
            not unsent
        run.say("  ladder %7.0f req/s: hit p%s %s us (n=%d), backlog %s, %d "
                "unsent -> %s" % (step, "%g" % tail if tail else "?",
                                  "%.0f" % p99 if math.isfinite(p99)
                                  else "missed", len(hit),
                                  "growing" if growing else "flat", unsent,
                                  "meets" if meets else "misses"))
        if not meets:
            break
        best = step
    run.record["max_rate_rps"] = best
    run.say("  %-22s %s (limit hit p99 <= %g us)" % (
        "max_rate_rps", "%g req/s" % best if best else
        "below the first rung", limit))


def single_node_check(run, cluster_rows):
    """Each distinct cluster answer equals a single node's, byte for byte."""
    corpus = cluster_rows[0]["item"].params["corpus"]
    distinct = {}
    for row in cluster_rows:
        if row["status"] == "ok":
            distinct.setdefault(row["item"].key, (row["item"], row["digest"]))
    node = Daemon(run.work, "single", [])
    items = closed([(i.method, i.params) for i, _ in distinct.values()],
                   "single")
    rows, _ = run.load(node, items, "check")
    node.stop()
    for row in rows:
        want = distinct[row["item"].key][1]
        if row["status"] == "ok" and row["digest"] != want:
            run.wrong_answer("check", "cluster answer to %s differs from the "
                             "single node's" % row["item"].key)
    run.say("check: %d distinct cluster answers against a single node (%s)"
            % (len(rows), corpus))


def traced_common(run, corpus, limits, gen_times):
    """The probe's layer timings, workload.generate_s and self times."""
    layers = probe_layers(run, corpus, limits)
    layers["workload.generate_s"] = stats.median(gen_times)
    selfs = stats.self_times([tuple(s) for s in run.spans if s[3] >= 0])
    run.record["self_time_ms"] = {k: v / 1000.0 for k, v in selfs.items()}
    run.say("self time by layer (ms): " + ", ".join(
        "%s %.1f" % (k, v / 1000.0) for k, v in sorted(selfs.items())))
    return layers


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = None
    try:
        spec = json.loads(SPEC.read_text())
        wanted = [(m["name"], m["unit"])
                  for m in spec["per_layer" if args.trace else "end_to_end"]]
        build()
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        run.record["meta"] = metadata(args.seed)
        body = {"batch": batch, "interactive": lambda r: queries(r, False),
                "cluster": lambda r: queries(r, True)}
        e2e, layers = body[args.workload](run)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        stop_all()
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)

    values = layers if args.trace else e2e
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in wanted}
    correct = not run.wrong
    attempted = run.ledger.attempted()
    failed = run.ledger.failed()
    meta = run.record["meta"]
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("meta: nproc=%d build=%s compiler=%s commit=%s source=%s "
          "held_out_seed=%d" % (meta["nproc"], meta["build_type"],
                                meta["compiler"], meta["git_commit"],
                                meta["source_sha256"], HELD_OUT_SEED))
    size = run.record["corpus"]
    print("corpus: %d streams, %d instances, %d events, %d bytes in %d "
          "shards" % (size["streams"], size["instances"], size["events"],
                      size["bytes"], size["shards"]))
    for line in run.report:
        print(line)
    for phase, counts in run.ledger.as_dict().items():
        print("ops %-9s attempted %d, ok %d, errors %s" % (
            phase, sum(counts.values()), counts.get("ok", 0),
            json.dumps({k: v for k, v in counts.items() if k != "ok"})))
    for problem in run.wrong:
        print("WRONG: " + problem)
    for name, unit in wanted:
        print("metric %-28s %.6g %s" % (name, metrics[name]["value"], unit))

    run.record.update({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "ops": run.ledger.as_dict(),
                       "wrong": run.wrong, "metrics": metrics,
                       "report": run.report})
    result_file = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                      args.trace))
    result_file.write_text(json.dumps(run.record, indent=1, default=str))
    (OUT / ("%s-seed%d-trace%d.spans.json" % (
        args.workload, args.seed, args.trace))).write_text(json.dumps(
            [{"name": s[0], "parent": s[1], "start_us": s[2], "end_us": s[3],
              "run": run.work.name} for s in run.spans]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
