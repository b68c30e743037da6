"""fermatkl benchmark: three single-process, single-thread, closed-loop
workloads over the Kronecker-limit and cross-path checks.

Run from the repository root:

    python3 perfbench/run.py --workload klf-fermat-cold --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each is here):

* klf-fermat-cold        one verify.check_klf_fermat per (N, cusp kind),
                         N in {2, 3, 4}, each on a pair no earlier op used
* crosspath-fermat-warm  verify.check_cross_path on Fermat pairs whose
                         enumeration and class tables were filled in set-up
* level2-verified        check_cross_path plus check_klf_gamma2 on the
                         level-2 group

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced.  With
``--trace 1`` a separate traced run breaks each op into its layer calls,
records spans in memory, writes them to perfbench/traces/ and reports the
per-layer metrics.  Each run is a fresh process because every cache in
the package is process-global; the seed picks the inputs only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

CHILD_TIMEOUT_S = 170.0


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``full`` is the benchmark, ``smoke`` the harness test."""

    klf_c_max: int          # check_klf_fermat / check_klf_gamma2 / level-2 cross path
    klf_m_max: int
    order: int
    klf_ns: tuple           # Fermat levels of klf-fermat-cold
    cross_c_max: int        # crosspath-fermat-warm, as AC12 uses
    setup_samples: int      # fewest set-ups per --trace 0 run; median reported
    setup_budget_s: float   # more set-ups until their total reaches this
    probe_count: int        # calls per kernel probe
    oracle_count: int       # probe inputs checked against an oracle
    direct_probe_c_max: int
    cli_runs: int


SIZES = {
    "full": Sizes(klf_c_max=500, klf_m_max=10, order=26, klf_ns=(2, 3, 4),
                  cross_c_max=250, setup_samples=3, setup_budget_s=2.0,
                  probe_count=4000,
                  oracle_count=60, direct_probe_c_max=150, cli_runs=3),
    "smoke": Sizes(klf_c_max=12, klf_m_max=2, order=6, klf_ns=(2,),
                   cross_c_max=12, setup_samples=2, setup_budget_s=0.0,
                   probe_count=20,
                   oracle_count=5, direct_probe_c_max=6, cli_runs=1),
}

# The checks run at their own default tolerances; the benchmark never
# passes one.  An op also fails if a check's tolerance is looser than the
# value pinned here.
PINNED_TOL = {"klf_fermat": 1e-4, "cross_path": 1e-4, "klf_gamma2": 1e-6}


def load_package() -> SimpleNamespace:
    """Import fermatkl from this checkout's src/ and nowhere else."""
    init = SRC / "fermatkl" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{init} not found: run from a fermatkl checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fermatkl
    from fermatkl import eisenstein, fermat, qseries, scattering, sl2, special, verify
    if Path(fermatkl.__file__).resolve() != init.resolve():
        raise ImportError(f"fermatkl imported from {fermatkl.__file__}, not {init}")
    return SimpleNamespace(eisenstein=eisenstein, fermat=fermat,
                           qseries=qseries, scattering=scattering, sl2=sl2,
                           special=special, verify=verify)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent index and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
        return out

    def inside_op(self, i: int) -> bool:
        while i is not None:
            if self.spans[i]["name"] == "op":
                return True
            i = self.spans[i]["parent"]
        return False


class NullTracer:
    """Tracer stand-in for the untraced run."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# seeded, stratified inputs (stdlib only; the package sees only the values)
# ---------------------------------------------------------------------------

def stratified_z(rng: random.Random, count: int, im_lo: float, im_hi: float) -> list:
    """``count`` points with Re z in [-1, 1] and Im z in [im_lo, im_hi], one
    in each of ``count`` equal slices of each range, the slices paired at
    random.  Op cost depends on z, so a block of ops costs about the same
    whatever the seed."""
    re = [-1.0 + 2.0 * (i + rng.random()) / count for i in range(count)]
    im = [im_lo + (im_hi - im_lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(re)
    rng.shuffle(im)
    return [complex(x, y) for x, y in zip(re, im)]


def cold_inputs(seed: int, ns=(2, 3, 4)):
    """Rounds of (n, kind, cusp index, z): one op per level and cusp kind.

    Round r takes the r-th entry of a seeded shuffle of each kind's cusp
    indices, so no (N, cusp) pair repeats within a run.  Im z stays in
    [1.5, 2.5]: below about 1.5 the default m_max caps the limit's modes
    without checking their decay.
    """
    rng = random.Random(seed)
    order = {(n, kind): rng.sample(range(n), n) for n in ns for kind in "ABC"}
    for r in range(min(ns)):
        keys = [(n, kind) for n in ns for kind in "ABC"]
        zs = stratified_z(rng, len(keys), 1.5, 2.5)
        yield [(n, kind, order[(n, kind)][r], z) for (n, kind), z in zip(keys, zs)]


def blocks(seed: int, combos: list, im_lo: float, im_hi: float):
    """Endless one-op rounds of (*combo, z); each block of len(combos) ops
    covers every combo once, in seeded order, at stratified z."""
    rng = random.Random(seed)
    while True:
        zs = stratified_z(rng, len(combos), im_lo, im_hi)
        for combo, z in zip(rng.sample(combos, len(combos)), zs):
            yield [(*combo, z)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def residue_count(pkg, j, k, c_max: int) -> int:
    """Level-2 residues d mod 2c coprime to c with the pair's parity,
    c <= c_max: the candidates the enumeration walks (computed here,
    not counted by the package)."""
    sl2 = pkg.sl2
    pt = sl2.cusp_scaling_matrix(j).inverse() * sl2.cusp_scaling_matrix(k)
    pc, pd = pt.c & 1, pt.d & 1
    return sum(1 for c in range(1, c_max + 1) if (c & 1) == pc
               for d in range(pd, 2 * c, 2) if math.gcd(d, c) == 1)


class Workload:
    """Set-up, inputs, the op, and the op broken into layer calls."""

    name = ""
    overhead_ops = None     # untraced ops the traced run is compared against; None: all

    def __init__(self, pkg, seed: int, sizes: Sizes):
        self.pkg, self.seed, self.sizes = pkg, seed, sizes
        e = pkg.eisenstein
        self.trunc = e.TruncationSpec(c_max=sizes.klf_c_max, m_max=sizes.klf_m_max,
                                      order=sizes.order)
        self.enumerated: list[tuple] = []   # (group, j, k, c_max) of enumerate spans

    def enumerate_pair(self, tracer, group, j, k, m, s, trunc):
        """First phi_coefficient call on a pair: the cold enumeration."""
        with tracer.span("eisenstein.enumerate", group=str(group)):
            self.pkg.eisenstein.phi_coefficient(group, j, k, m, s, trunc)
        self.enumerated.append((group, j, k, trunc.c_max))

    def setup(self, tracer) -> None:
        pass

    def rounds(self):
        raise NotImplementedError

    def op(self, inp) -> list:
        raise NotImplementedError

    def traced_op(self, inp, tracer) -> list:
        raise NotImplementedError


class KlfFermatCold(Workload):
    name = "klf-fermat-cold"
    overhead_ops = 3    # keeps the traced run, with its untraced child, under 180 s

    def rounds(self):
        return cold_inputs(self.seed, self.sizes.klf_ns)

    def _args(self, inp):
        n, kind, idx, z = inp
        return n, self.pkg.fermat.fermat_cusp_of_ram(n, kind, idx), z

    def op(self, inp):
        n, fc, z = self._args(inp)
        return [self.pkg.verify.check_klf_fermat(n, fc, z, self.trunc)]

    def traced_op(self, inp, tracer):
        p = self.pkg
        n, fc, z = self._args(inp)
        group = p.fermat.gamma_n(n)
        chart = p.fermat.cusp_reps(n)[-1].rep
        self.enumerate_pair(tracer, group, fc.rep, chart, 1, 1.0, self.trunc)
        with tracer.span("eisenstein.limit", group=str(group)):
            p.eisenstein.fourier_limit_eval(group, fc.rep, chart, z, self.trunc)
        with tracer.span("qseries.expand"):
            f = p.qseries.expansion(p.qseries.FormLabel("f", n, fc.kind, fc.index),
                                    self.trunc.order)
        with tracer.span("qseries.evaluate"):
            f.evaluate(z)
        with tracer.span("scattering.constant", group=str(group)):
            p.scattering.klf_constant(group)
        with tracer.span("verify.klf_fermat", group=str(group)):
            return self.op(inp)


class CrosspathFermatWarm(Workload):
    name = "crosspath-fermat-warm"
    ns = (2, 3)

    def __init__(self, pkg, seed, sizes):
        super().__init__(pkg, seed, sizes)
        self.cross = pkg.eisenstein.TruncationSpec(
            c_max=sizes.cross_c_max, m_max=sizes.klf_m_max, order=sizes.order)
        # AC04's representative pairs: (inf, inf), (0, inf), (rep_N, 0)
        self.pairs = {}
        for n in self.ns:
            reps = pkg.fermat.cusp_reps(n)
            self.pairs[n] = ((reps[-1].rep, reps[-1].rep), (reps[0].rep, reps[-1].rep),
                             (reps[n].rep, reps[0].rep))

    def setup(self, tracer):
        e = self.pkg.eisenstein
        for n in self.ns:
            group = self.pkg.fermat.gamma_n(n)
            for j, k in self.pairs[n]:
                self.enumerate_pair(tracer, group, j, k, 0, 2.0, self.cross)
            with tracer.span("eisenstein.direct_cold", group=str(group)):
                e.eisenstein_direct(group, self.pairs[n][0][0], 2j, 2.0, self.cross)

    def rounds(self):
        return blocks(self.seed, [(n, p) for n in self.ns for p in range(3)], 1.0, 2.5)

    def op(self, inp):
        n, p, z = inp
        return [self.pkg.verify.check_cross_path(self.pkg.fermat.gamma_n(n), *self.pairs[n][p],
                                                 z, 2.0, self.cross)]

    def traced_op(self, inp, tracer):
        n, p, z = inp
        group = self.pkg.fermat.gamma_n(n)
        fourier_direct(self.pkg, tracer, group, *self.pairs[n][p], z, self.cross)
        with tracer.span("verify.cross_path", group=str(group)):
            return self.op(inp)


class Level2Verified(Workload):
    name = "level2-verified"

    def __init__(self, pkg, seed, sizes):
        super().__init__(pkg, seed, sizes)
        sl2 = pkg.sl2
        self.cusps = (sl2.CUSP_ZERO, sl2.CUSP_ONE, sl2.CUSP_INF)
        self.glabels = ("g0", "g1", "ginf")

    def setup(self, tracer):
        p = self.pkg
        g2 = p.fermat.GAMMA2
        for j in self.cusps:
            for k in self.cusps:
                self.enumerate_pair(tracer, g2, j, k, 0, 2.0, self.trunc)
        with tracer.span("eisenstein.direct_cold", group=str(g2)):
            p.eisenstein.eisenstein_direct(g2, self.cusps[0], 2j, 2.0, self.trunc)
        for name in self.glabels:
            with tracer.span("qseries.expand"):
                p.qseries.expansion(p.qseries.FormLabel(name), self.trunc.order)

    def rounds(self):
        return blocks(self.seed, [(j, k) for j in range(3) for k in range(3)], 1.0, 2.5)

    def op(self, inp):
        ji, ki, z = inp
        v = self.pkg.verify
        g2 = self.pkg.fermat.GAMMA2
        return [v.check_cross_path(g2, self.cusps[ji], self.cusps[ki], z, 2.0,
                                   self.trunc),
                v.check_klf_gamma2(self.cusps[ji], z, self.trunc)]

    def traced_op(self, inp, tracer):
        p = self.pkg
        ji, ki, z = inp
        g2 = p.fermat.GAMMA2
        j, k = self.cusps[ji], self.cusps[ki]
        fourier_direct(p, tracer, g2, j, k, z, self.trunc)
        with tracer.span("eisenstein.limit", group=str(g2)):
            p.eisenstein.fourier_limit_eval(g2, j, p.sl2.CUSP_INF, z, self.trunc)
        with tracer.span("qseries.expand"):
            g = p.qseries.expansion(p.qseries.FormLabel(self.glabels[ji]), self.trunc.order)
        with tracer.span("qseries.evaluate"):
            g.evaluate(z)
        with tracer.span("scattering.constant", group=str(g2)):
            p.scattering.klf_constant(g2)
        with tracer.span("verify.checks", group=str(g2)):
            return self.op(inp)


def fourier_direct(pkg, tracer, group, j, k, z, trunc):
    """The two sides of check_cross_path, each in its own span."""
    e, sl2 = pkg.eisenstein, pkg.sl2
    with tracer.span("eisenstein.fourier", group=str(group)):
        e.fourier_eval(group, j, k, z, 2.0, trunc)
    with tracer.span("eisenstein.direct", group=str(group)):
        gk = sl2.cusp_scaling_matrix(e.standard_rep(group, k))
        e.eisenstein_direct(group, j, sl2.mobius_point(gk, z), 2.0, trunc)


WORKLOADS = {w.name: w for w in (KlfFermatCold, CrosspathFermatWarm, Level2Verified)}


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

# The speed of a shared host drifts by a quarter or more within a run and
# from one run to the next, and ops slow with it.  So a timer interrupts
# the untraced ops every CAL_PERIOD_S to time a fixed calibration kernel,
# and each op's wall time, less those interruptions, is also divided by
# the kernel's mean time in and around the op.  One "cal" is one call of
# that kernel on the same machine at the same moment; the package never
# runs inside it.
CAL_PERIOD_S = 0.05     # wall time between calibration samples
CAL_CALLS = 8           # kernel calls per sample, a few ms
CAL_WINDOW_S = 0.25     # samples this close to an op calibrate it


def _cal_step(u: int, v: int) -> tuple[int, int]:
    r = u % v
    return v, min({r, v - r, abs(u - 2 * v)}) + 1


class Calibrator:
    """Samples a fixed reference kernel shaped like the package's work:
    small-integer steps through function calls, sets and tuples, as in
    the exponent-sum reduction, and a short numpy exponential sum, as in
    the Fourier and direct sums.  Used as a context manager, it samples
    on entry, on exit and on every SIGALRM of an interval timer between."""

    def __init__(self):
        import numpy   # already imported by the package in set-up
        self._np = numpy
        self._phases = 1j * numpy.linspace(0.0, 6.0, 200)
        self.samples: list[tuple[float, float]] = []    # (start, end)

    def kernel(self) -> int:
        acc = 0
        for seed in range(1, 40):
            u, v = 7919 * seed, 104729 % seed + 3
            for _ in range(12):
                u, v = _cal_step(u, v)
                acc += v
        return acc + int(self._np.exp(self._phases).sum().real)

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        for _ in range(CAL_CALLS):
            self.kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def inside(self, a: float, b: float) -> float:
        """Seconds spent sampling within [a, b]."""
        return sum(e - s for s, e in self.samples if a <= s and e <= b)

    def per_call(self, a: float, b: float) -> float:
        """Mean seconds per kernel call over the samples that start within
        CAL_WINDOW_S of [a, b]; over all samples if none does.  A mean, like
        an op's wall time, so that time descheduled counts on both sides."""
        near = [e - s for s, e in self.samples
                if a - CAL_WINDOW_S <= s <= b + CAL_WINDOW_S] or \
            [e - s for s, e in self.samples]
        return sum(near) / (len(near) * CAL_CALLS)


@dataclass
class OpStats:
    latencies: list = field(default_factory=list)   # wall seconds, calibration taken out
    verified: list = field(default_factory=list)    # per op: passed every check
    cal: list = field(default_factory=list)         # per op: kernel seconds per call around it
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    ratio_max: float = 0.0          # worst residual / tolerance
    errors: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Verified ops completed per second of op time."""
        return sum(self.verified) / sum(self.latencies)

    @property
    def costs(self) -> list:
        """Each op's wall time in cals."""
        return [t / c for t, c in zip(self.latencies, self.cal)]

    @property
    def ops_per_kcal(self) -> float:
        """Verified ops completed per thousand cals of op time."""
        return 1e3 * sum(self.verified) / sum(self.costs)


def run_ops(rounds, op, seconds: float, tracer=None, max_ops=None) -> OpStats:
    """Run whole rounds of ops back to back until ``seconds`` have passed,
    or stop after ``max_ops`` ops.

    Untraced ops are calibrated (see Calibrator); traced ops are not, so
    that calibration stays out of their spans, and their ``cal`` is empty.

    An op fails when any of its reports fails or it raises; both count
    against the ops attempted.
    """
    st = OpStats()
    spans = []      # (start, end) of each op
    cal = Calibrator() if tracer is None else None
    t_start = time.perf_counter()
    with cal if cal is not None else contextlib.nullcontext():
        for block in rounds:
            for inp in block:
                if st.attempted == max_ops:
                    break
                if tracer is not None:
                    tracer.op_id = st.attempted
                t0 = time.perf_counter()
                try:
                    with (tracer.span("op", input=repr(inp)) if tracer is not None
                          else contextlib.nullcontext()):
                        reports = op(inp)
                    ok = True
                    for r in reports:
                        if r.tolerance > 0:
                            st.ratio_max = max(st.ratio_max, r.residual / r.tolerance)
                        if not r.passed or r.tolerance > PINNED_TOL.get(r.check_id, math.inf):
                            ok = False
                            st.errors.append(f"{r.check_id} {r.parameters} residual "
                                             f"{r.residual:.3e}, tolerance {r.tolerance:.1e}")
                except Exception as exc:  # counted as a failed op, never raised
                    ok = False
                    st.errors.append(f"{inp!r}: {exc!r}")
                spans.append((t0, time.perf_counter()))
                st.verified.append(ok)
                st.attempted += 1
                st.failed += not ok
            if time.perf_counter() - t_start >= seconds or st.attempted == max_ops:
                break
    for a, b in spans:
        st.latencies.append(b - a - (cal.inside(a, b) if cal is not None else 0.0))
        if cal is not None:
            st.cal.append(cal.per_call(a, b))
    st.elapsed = time.perf_counter() - t_start
    if tracer is not None:
        tracer.op_id = None
    return st


def tail_percentile(latencies: list) -> tuple | None:
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, value); None when there are too few samples."""
    n = len(latencies)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    xs = sorted(latencies)
    return pct, xs[max(0, math.ceil(pct / 100.0 * n) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer probes (traced run only)
# ---------------------------------------------------------------------------

def _rate(calls: list, fn) -> float:
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return len(calls) / (time.perf_counter() - t0)


def _median_ms(calls: list, fn) -> float:
    ts = []
    for args in calls:
        t0 = time.perf_counter()
        fn(*args)
        ts.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(ts)


def gamma2_matrices(rng: random.Random, count: int, c_limit: int = 500) -> list:
    """Level-2 matrices [a b; c d] from seeded coprime (c, d), c <= c_limit,
    with a = d^-1 mod 2c: the shape the enumeration feeds the reduction."""
    out = []
    while len(out) < count:
        c = 2 * rng.randint(1, c_limit // 2)
        d = rng.randrange(1, 2 * c, 2)
        if math.gcd(d, c) != 1:
            continue
        a = pow(d, -1, 2 * c)
        out.append((a, (a * d - 1) // c, c, d))
    return out


def classify_inputs(rng: random.Random, count: int, c_limit: int = 500) -> list:
    """(-d, c, N) with d in [0, 2Nc) coprime to c, as the class tables use."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 4))
        c = rng.randint(1, c_limit)
        d = rng.randrange(2 * n * c)
        if math.gcd(d, c) == 1:
            out.append((-d, c, n))
    return out


def run_probes(pkg, seed: int, sizes: Sizes) -> tuple[dict, list]:
    """Kernel probes shared by all workloads; returns (metrics, oracle failures)."""
    rng = random.Random(seed ^ 0x5EED)
    sl2, fermat, e, q, sc = pkg.sl2, pkg.fermat, pkg.eisenstein, pkg.qseries, pkg.scattering
    m: dict = {}
    bad: list = []
    cnt, ocnt = sizes.probe_count, sizes.oracle_count

    mats = gamma2_matrices(rng, cnt)
    m["sl2.exp_sums_per_s"] = _rate(mats, sl2.gamma2_exponent_sums)
    for a, b, c, d in mats[:ocnt]:
        mat = sl2.Mat2Z(a, b, c, d)
        word = sl2.decompose_gamma2(mat)
        if (sl2.gamma2_exponent_sums(a, b, c, d) != (word.r1, word.r2)
                or sl2.word_to_matrix(word) != mat):
            bad.append(f"gamma2_exponent_sums{(a, b, c, d)} disagrees with decompose_gamma2")

    cls = classify_inputs(rng, cnt)
    m["fermat.classify_per_s"] = _rate(cls, fermat.classify_rep_index)
    for p_, c, n in cls[:ocnt]:
        fc, _ = fermat.classify_cusp(sl2.Cusp(p_, c), n)
        if fermat.classify_rep_index(p_, c, n) != fermat.cusp_reps(n).index(fc):
            bad.append(f"classify_rep_index{(p_, c, n)} disagrees with classify_cusp")

    bes = [(complex(1.5), 2.0 * math.pi * rng.randint(1, 10) * rng.uniform(1.0, 2.5)
            / rng.choice((2, 4, 6))) for _ in range(cnt)]
    m["special.bessel_k_per_s"] = _rate(bes, pkg.special.bessel_k)

    # first eisenstein_direct on a group no workload sums directly, minus a warm call
    g4 = fermat.gamma_n(4)
    tr = e.TruncationSpec(c_max=sizes.direct_probe_c_max)
    z = complex(rng.uniform(-1, 1), rng.uniform(1.0, 2.5))
    t0 = time.perf_counter()
    e.eisenstein_direct(g4, sl2.CUSP_INF, z, 2.0, tr)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    e.eisenstein_direct(g4, sl2.CUSP_INF, z, 2.0, tr)
    m["eisenstein.direct_cold_s"] = cold - (time.perf_counter() - t0)

    # warm Fourier and direct paths on a Fermat pair at crosspath-fermat-warm's size
    g2n = fermat.gamma_n(2)
    tr = e.TruncationSpec(c_max=sizes.cross_c_max, m_max=sizes.klf_m_max, order=sizes.order)
    j, k = sl2.CUSP_ZERO, sl2.CUSP_INF
    e.fourier_eval(g2n, j, k, 2j, 2.0, tr)
    e.eisenstein_direct(g2n, j, 2j, 2.0, tr)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(1.0, 2.5)) for _ in range(15)]
    m["eisenstein.fourier_ms"] = _median_ms([(g2n, j, k, z, 2.0, tr) for z in zs], e.fourier_eval)
    m["eisenstein.direct_ms"] = _median_ms([(g2n, j, z, 2.0, tr) for z in zs],
                                           e.eisenstein_direct)

    # level-2 limit, q-series and constants at the package truncation
    g2 = fermat.GAMMA2
    tr = e.TruncationSpec(c_max=sizes.klf_c_max, m_max=sizes.klf_m_max, order=sizes.order)
    e.fourier_limit_eval(g2, j, k, 2j, tr)
    m["eisenstein.limit_ms"] = _median_ms([(g2, j, k, z, tr) for z in zs], e.fourier_limit_eval)
    t0 = time.perf_counter()
    forms = [q.expansion(q.FormLabel("f", 5, kind, rng.randrange(5)), sizes.order)
             for kind in "ABC"]
    m["qseries.expand_s"] = time.perf_counter() - t0
    m["qseries.evaluate_ms"] = _median_ms([(f, z) for f in forms for z in zs],
                                          lambda f, z: f.evaluate(z))
    pairs = [(fermat.gamma_n(n), fc.rep, fermat.cusp_reps(n)[-1].rep)
             for n in (2, 3, 4) for fc in fermat.cusp_reps(n)]

    def constants(group, a, b):
        sc.klf_constant(group)
        sc.natural_constant(group, a, b)

    m["scattering.constant_ms"] = 1e3 / _rate(pairs, constants)

    cli_times = []
    for _ in range(sizes.cli_runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fermatkl.cli", "scatter", "--n", "5", "--no-timestamp"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, timeout=CHILD_TIMEOUT_S)
        cli_times.append(time.perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and len(json.loads(proc.stdout)["results"]["reps"]) == 15
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad.append(f"fermatkl scatter --n 5 failed: rc {proc.returncode}")
    m["cli.cold_start_s"] = statistics.median(cli_times)
    return m, bad


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, sizes: Sizes, tracer) -> tuple:
    """Import, build the inputs and warm the caches; returns the workload,
    its input rounds and the seconds taken."""
    t0 = time.perf_counter()
    pkg = load_package()
    wl = WORKLOADS[name](pkg, seed, sizes)
    rounds = wl.rounds()
    with tracer.span("setup"):
        wl.setup(tracer)
    return wl, rounds, time.perf_counter() - t0


def run_plain(name: str, seed: int, seconds: float, sizes: Sizes, max_ops=None) -> dict:
    wl, rounds, setup_s = set_up(name, seed, sizes, NullTracer())
    st = run_ops(rounds, wl.op, seconds, max_ops=max_ops)
    return {"setup_s": setup_s, "stats": st, "peak_rss_mb": peak_rss_mb()}


def run_traced(name: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    tracer = Tracer()
    wl, rounds, _ = set_up(name, seed, sizes, tracer)
    st = run_ops(rounds, lambda inp: wl.traced_op(inp, tracer), seconds, tracer)
    probes, bad = run_probes(wl.pkg, seed, sizes)

    enum = tracer.durations("eisenstein.enumerate")
    residues = sum(residue_count(wl.pkg, j, k, c_max) for _, j, k, c_max in wl.enumerated)
    traced_total = sum(tracer.durations("setup")) + sum(tracer.durations("op"))
    metrics = {
        "eisenstein.enumerate_s": sum(enum) / len(enum),
        "eisenstein.enum_residues_per_s": residues / sum(enum),
        "eisenstein.enumerate_share": sum(enum) / traced_total,
        **probes,
        "verify.residual_ratio_max": st.ratio_max,
    }
    in_ops = [s for i, s in enumerate(tracer.spans) if tracer.inside_op(i)]
    op_time = sum(tracer.durations("op"))
    intent = {
        "enumerate_share_of_op_time": sum(s["end"] - s["start"] for s in in_ops
                                          if s["name"] == "eisenstein.enumerate") / op_time,
        "enumerate_spans_in_ops": sum(s["name"] == "eisenstein.enumerate" for s in in_ops),
        "groups_in_ops": sorted({s["group"] for s in in_ops if "group" in s}),
    }
    return {"stats": st, "metrics": metrics, "oracle_failures": bad,
            "tracer": tracer, "intent": intent}


def machine_info() -> dict:
    """Called after the measurement, so that numpy's import stays in set-up."""
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": checkout_commit()}


def checkout_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str]) -> dict:
    """Run this script in a fresh process and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def emit(correct: bool, st: OpStats, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": st.attempted, "failed": st.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report_ops(name: str, st: OpStats) -> None:
    print(f"workload {name}: {st.attempted} ops attempted, {st.failed} failed "
          f"({st.failed / st.attempted:.1%}), {st.elapsed:.2f} s timed")
    tail = tail_percentile(st.latencies)
    if tail is None:
        print(f"op_tail_ms: omitted, {len(st.latencies)} samples are fewer than 20")
    else:
        print(f"op_tail_ms p{tail[0]} = {1e3 * tail[1]:.6g} ms "
              f"({len(st.latencies)} samples)")
    for err in st.errors[:10]:
        print(f"failed: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=sorted(SIZES), default="full")
    ap.add_argument("--child", choices=("setup", "plain"), help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if not (SRC / "fermatkl" / "__init__.py").is_file():
        print(f"perfbench: no fermatkl package under {SRC}", file=sys.stderr)
        return 2
    sizes = SIZES[a.sizes]
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--sizes", a.sizes]

    if a.child == "setup":
        _, _, setup_s = set_up(a.workload, a.seed, sizes, NullTracer())
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if a.child == "plain":
        st = run_plain(a.workload, a.seed, a.seconds, sizes,
                       WORKLOADS[a.workload].overhead_ops)["stats"]
        print(json.dumps({"latencies": st.latencies, "failed": st.failed}))
        return 0

    e2e_units, layer_units = metric_units()
    if a.trace == 0:
        res = run_plain(a.workload, a.seed, a.seconds, sizes)
        st = res["stats"]
        setups = [res["setup_s"]]
        while len(setups) < sizes.setup_samples or sum(setups) < sizes.setup_budget_s:
            setups.append(child(base + ["--child", "setup"])["setup_s"])
        print("machine " + json.dumps(machine_info(), sort_keys=True))
        report_ops(a.workload, st)
        print("setup samples s: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"wall ops_per_s = {st.ops_per_s:.6g} 1/s, op_p50_ms = "
              f"{1e3 * statistics.median(st.latencies):.6g} ms, cal = "
              f"{1e3 * statistics.median(st.cal):.6g} ms (not gated: host speed drifts)")
        metrics = {
            "ops_per_kcal": st.ops_per_kcal,
            "op_p50_cal": statistics.median(st.costs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        emit(st.failed == 0, st, metrics, e2e_units)
        return 0

    untraced = child(base + ["--child", "plain"])
    res = run_traced(a.workload, a.seed, a.seconds, sizes)
    st, tracer = res["stats"], res["tracer"]
    metrics = dict(res["metrics"])
    # same seed, same inputs: compare the ops both runs made
    common = min(len(st.latencies), len(untraced["latencies"]))
    metrics["trace.overhead_frac"] = \
        sum(st.latencies[:common]) / sum(untraced["latencies"][:common]) - 1.0
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    report_ops(a.workload, st)
    self_ms = {k: 1e3 * v for k, v in sorted(tracer.self_times().items())}
    for span_name, ms in self_ms.items():
        print(f"self time {span_name} = {ms:.6g} ms")
    for key, value in res["intent"].items():
        print(f"intent {key} = {value}")
    for msg in res["oracle_failures"]:
        print(f"oracle failure: {msg}")
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{a.workload}-seed{a.seed}.json"
    out.write_text(json.dumps({"workload": a.workload, "seed": a.seed,
                               "machine": machine_info(), "self_ms": self_ms,
                               "intent": res["intent"], "spans": tracer.spans}, indent=1))
    print(f"spans written to {out.relative_to(ROOT)}")
    correct = st.failed == 0 and untraced["failed"] == 0 and not res["oracle_failures"]
    emit(correct, st, {k: metrics[k] for k in layer_units}, layer_units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
