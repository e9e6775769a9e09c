"""One pass of a benchmark workload, in a fresh interpreter.

Usage:
    python3 perfbench/worker.py --src DIR --workload NAME [--spans FILE]
                                [--outputs] < ops.json

Reads the op list as JSON on stdin, imports hopfgen from DIR, builds the
instances and cocycles the ops need (set-up), runs the ops one after the
other, and prints one JSON object: set-up seconds, each op's latency,
output digest and error, the peak RSS and the host-speed gauge's readings.
Times are expressed at the reference host speed (see HostGauge).  With
--spans the pass is traced from set-up on (see tracing.py), the spans are
written to FILE and the per-layer summary is added to the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

# Check whose details hold a wall time; only its pass flag is an output.
TIMED_CHECKS = frozenset({"combined runtime below thirty seconds"})


def output_digest(out) -> str:
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _checks(rep) -> list:
    return [
        [c.name, c.passed, "" if c.name in TIMED_CHECKS else c.details]
        for c in rep.checks
    ]


class Workbench:
    """Instances, cocycles and inputs for one op list, and the op runners."""

    def __init__(self, hg, workload: str, ops: list[dict]):
        self.hg = hg
        self.objects: dict[int, object] = {}  # op index -> op-private object
        self.instances: dict[str, object] = {}
        self.trivial: dict[str, object] = {}
        if workload == "roster":
            hg.selftest.standard_instances()
        for i, op in enumerate(ops):
            kind = op["kind"]
            if kind == "ygroup":
                self.objects[i] = hg.groups.group_from_spec(op["spec"])
            elif kind == "nice":
                # one fresh algebra per query, as each `hopfgen base` call builds
                self.objects[i] = hg.hopf.group_algebra(hg.groups.group_from_spec(op["spec"]))
            elif kind == "decompose":
                self.objects[i] = self._element(op)
            elif kind == "identity":
                h = self._identity_instance(op["inst"])
                if op["cocycle"] is not None:
                    self.objects[i] = hg.cocycle.coboundary_cocycle(h, op["cocycle"])

    def _instance(self, name: str):
        h = self.instances.get(name)
        if h is None:
            hg = self.hg
            if name.startswith("taft("):
                h = hg.hopf.taft(int(name[5:-1]))
            elif name.startswith("e("):
                h = hg.hopf.e_algebra(int(name[2:-1]))
            elif name == "monomial(Klein,2)":
                h = hg.selftest.klein_monomial()
            elif name == "k[S3]":
                h = hg.hopf.group_algebra(hg.groups.symmetric(3))
            elif name == "k[Z/6]":
                h = hg.hopf.group_algebra(hg.groups.cyclic(6))
            else:
                raise ValueError(f"unknown instance {name!r}")
            self.instances[name] = h
        return h

    def _identity_instance(self, name: str):
        """The instance with its trivial cocycle; one unit-letter query fills
        the instance's derived data (coordinate ring, twisted product, centre
        span) so that op latencies measure the queries themselves."""
        if name not in self.trivial:
            hg = self.hg
            h = self._instance(name)
            if tuple(h.labels) != hg.workloads.LABELS[name]:
                raise ValueError(f"labels of {name} differ from the generator's")
            alpha = hg.cocycle.trivial_cocycle(h)
            hg.identities.classify(h, alpha, hg.identities.symbol(h, h.unit_index))
            self.trivial[name] = alpha
        return self.instances[name]

    def _element(self, op: dict):
        hg = self.hg
        h = self._instance(op["inst"])
        ring = hg.tring.t_ring(h)
        pres = hg.generic_base.gamma_generators(h)
        if (len(pres.invertible_gens), len(pres.plain_gens)) != hg.workloads.DECOMPOSE_INSTANCES[op["inst"]]:
            raise ValueError(f"presentation of {op['inst']} differs from the generator's")
        elem = ring.zero()
        for inv, plain, coeff in op["terms"]:
            term = ring.scalar(ring.field.scalar(coeff))
            for gen, e in zip(pres.invertible_gens, inv):
                if e:
                    term = term * gen**e
            for gen, e in zip(pres.plain_gens, plain):
                if e:
                    term = term * gen**e
            elem = elem + term
        return elem

    # -- ops: each returns its exact output as plain JSON data -------------

    def run(self, i: int, op: dict):
        return getattr(self, "op_" + op["kind"])(i, op)

    def op_criterion(self, i, op):
        ((number, title, rep),) = self.hg.selftest.run_criteria(
            [op["number"]], seed=op["seed"], jobs=1
        )
        return {"number": number, "title": title, "checks": _checks(rep)}

    def op_ygroup(self, i, op):
        hg, g = self.hg, self.objects[i]
        ab, _ = hg.groups.abelianization(g)
        yl = hg.lattice.y_group(g)
        rep = hg.lattice.pq_generation_check(g)
        return {
            "group": g.name, "order": g.order, "abelianization_order": ab.order,
            "rank": yl.rank, "index": yl.index, "ok": rep.ok, "checks": _checks(rep),
        }

    def op_nice(self, i, op):
        hg, h = self.hg, self.objects[i]
        pres = hg.generic_base.gamma_generators(h)
        generators = {
            "invertible": [g.to_text() for g in pres.invertible_gens],
            "plain": [g.to_text() for g in pres.plain_gens],
            "special_case": pres.special_case,
        }
        wits = hg.generic_base.niceness_witnesses(h)
        return {"instance": h.name, "generators": generators, "witnessed": len(wits)}

    def op_decompose(self, i, op):
        hg = self.hg
        wits = hg.generic_base.decompose(self.instances[op["inst"]], self.objects[i])
        return [
            [hg.arith.scalar_to_strings(w.coefficient), list(w.invertible_exps),
             list(w.plain_exps), list(w.residue_exps)]
            for w in wits
        ]

    def op_identity(self, i, op):
        hg = self.hg
        h = self.instances[op["inst"]]
        alpha = self.objects[i] if op["cocycle"] is not None else self.trivial[op["inst"]]
        poly = hg.identities.parse_ncpoly(op["poly"], h)
        flags = hg.identities.classify(h, alpha, poly)
        return {"instance": h.name, "poly": op["poly"], "classification": flags}


# Host speed.  Other tenants of a shared host slow it down by up to 2x, in
# phases of a fraction of a second to minutes, so a whole run can fall
# inside one.  The worker therefore runs a fixed piece of pure-Python work,
# the probe, on a timer throughout set-up and the ops, and expresses each
# timing at the host speed at which one probe takes PROBE_REF_S: seconds of
# program time times PROBE_REF_S over the median probe time in and around
# the timed interval.  Program time is wall time less the probes inside it.
# The probe does the kind of work hopfgen does (Fraction arithmetic, dict
# updates on tuple keys, small-integer loops) but runs none of hopfgen's
# code, so a change to the package moves the timings and not the probe.
# The Fraction part alone slows down about 5% more than hopfgen does in a
# slow phase and the integer loop alone less; together they track it.
PROBE_REF_S = 0.005  # one probe on the calm 2-vCPU host the bounds were set on
PROBE_EVERY_S = 0.1  # timer period: probes take about 5% of a pass
PROBE_AROUND_SETUP = 10  # probes just before and just after set-up
PROBE_WINDOW_S = 0.5  # probes this close to an interval gauge its speed
PROBE_MIN = 8  # or, if fewer, this many nearest probes


def probe_s() -> float:
    """Seconds for one probe.  The collector is off while it runs, so that
    it never collects the program's objects on the probe's time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        third = Fraction(1, 3)
        for i in range(1000):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0) + third * Fraction(i % 7 + 1, i % 5 + 1)
        total = 0
        for i in range(25_000):
            total += i * i
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostGauge:
    """Probe samples of one pass, taken on a timer or on demand, and the
    scaling of timed intervals.  `now` is the program clock: it does not
    advance while a probe runs."""

    def __init__(self, probe=probe_s):
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (program time, seconds)
        self.spent = 0.0  # seconds of probes so far
        self._probing = False

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        """Take one probe; also the timer's signal handler."""
        if self._probing:
            return
        self._probing = True
        try:
            secs = self.probe()
            self.spent += secs
            self.samples.append((self.now(), secs))
        finally:
            self._probing = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Median probe seconds within PROBE_WINDOW_S of [start, end], or
        over the PROBE_MIN probes nearest to it if the window holds fewer."""
        def gap(sample):
            return max(start - sample[0], sample[0] - end, 0.0)

        near = [s for s in self.samples if gap(s) <= PROBE_WINDOW_S]
        if len(near) < PROBE_MIN:
            near = sorted(self.samples, key=gap)[:PROBE_MIN]
        return statistics.median(secs for _, secs in near)

    def scaled(self, start: float, end: float) -> float:
        """Program seconds of [start, end] at the reference host speed."""
        return (end - start) * PROBE_REF_S / self.speed(start, end)


def _import_hopfgen(src: Path):
    """Import the package from the checkout's source tree and the
    benchmark's generator; returns a namespace of modules."""
    sys.path.insert(0, str(src))
    ns = types.SimpleNamespace()
    for name in ("arith", "cocycle", "generic_base", "groups", "hopf",
                 "identities", "lattice", "linalg", "selftest", "tring"):
        setattr(ns, name, importlib.import_module(f"hopfgen.{name}"))
    origin = Path(ns.arith.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"hopfgen imported from {origin}, not from {src}")
    ns.workloads = importlib.import_module("workloads")
    return ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spans", type=Path, help="trace the pass, write spans here")
    parser.add_argument("--outputs", action="store_true", help="add every op's output")
    args = parser.parse_args(argv)
    ops = json.load(sys.stdin)
    gauge = HostGauge()
    for _ in range(3):  # warm-up, not gauged
        gauge.probe()
    for _ in range(PROBE_AROUND_SETUP):
        gauge.sample()
    gauge.start_timer()

    start = gauge.now()
    hg = _import_hopfgen(args.src)
    tracer = None
    if args.spans:
        # traced from set-up on, so that builds done in set-up are counted
        from tracing import Tracer

        tracer = Tracer(clock=gauge.now)
        tracer.install(sys.modules)
        bench = tracer.span("setup", "bench", Workbench, hg, args.workload, ops)
    else:
        bench = Workbench(hg, args.workload, ops)
    setup = (start, gauge.now())
    for _ in range(PROBE_AROUND_SETUP):
        gauge.sample()

    outputs, intervals, errors = [], [], []
    clock = gauge.now
    for i, op in enumerate(ops):
        t = clock()
        try:
            if tracer is None:
                out = bench.run(i, op)
            else:
                tracer.op = i
                out = tracer.span(f"op:{op['kind']}", "bench", bench.run, i, op)
            err = None
        except Exception as exc:  # an op failure is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        intervals.append((t, clock()))
        outputs.append(out)
        errors.append(err)
    gauge.stop_timer()
    result = {
        "setup_s": gauge.scaled(*setup),
        "latencies": [gauge.scaled(*iv) for iv in intervals],
        "digests": [None if e else output_digest(o) for o, e in zip(outputs, errors)],
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "raw_setup_s": setup[1] - setup[0],
        "raw_wall_s": sum(end - start for start, end in intervals),
        "probe_s": statistics.median(secs for _, secs in gauge.samples),
    }
    if args.outputs:
        result["outputs"] = outputs
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.spans)
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
