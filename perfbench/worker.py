"""One workload of the benchmark, in a fresh interpreter.

run.py starts this file once per measurement, because the library's
caches (``_an_bits``, ``_GEN_CACHE``) and ``RESULT_LOG`` are global to
the process:

    python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS SPAWNED

SPAWNED is run.py's ``time.perf_counter()`` just before the start, so
that set-up time counts from process start.  MODE is one of

    setup    set up, report the set-up time and exit;
    run      set up, then run ops in a closed loop for SECONDS (and at
             least the digest prefix and ``rss_ops``), one op at a time;
    prefix   set up, then run exactly the digest prefix;
    trace    like prefix, with every traced library function wrapped;
    profile  like prefix, under cProfile; prints the top N functions by
             own time to standard error, N given in place of SECONDS.

Every answer is checked by ``oracle``.  The result is one JSON object
on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
SPANS_DIR = os.path.join(os.getcwd(), ".perfbench")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
# ops in every timed run at least, so that 10 latencies lie beyond p90
MIN_OPS = 100


def _library():
    """Import rigidwitt from the checkout's own sources."""
    sys.path.insert(0, SRC)
    import rigidwitt
    from rigidwitt import pfnum, qform, sqclass  # noqa: F401

    if not os.path.abspath(rigidwitt.__file__).startswith(SRC + os.sep):
        sys.exit(f"rigidwitt imported from {rigidwitt.__file__}, not {SRC}")
    return rigidwitt


def _import_times(stderr: str) -> dict:
    """Cumulative import seconds of rigidwitt and numpy, from the
    `-X importtime` lines `import time: self | cumulative | package`."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = [p.strip() for p in line[12:].split("|")]
            if parts[2] in ("rigidwitt", "numpy"):
                out[parts[2]] = int(parts[1]) / 1e6
    return out


class Op:
    __slots__ = ("kind", "field", "v", "bits", "form", "arg")

    def __init__(self, kind, field, v, bits, arg=None):
        self.kind, self.field, self.v, self.bits, self.arg = (
            kind, field, v, bits, arg)
        self.form = None


class Workload:
    """A seeded, endless input stream plus the call and check of one op.

    ``prefix`` ops start every run; their answers make the digest, and
    traced and profiled runs execute exactly them.  Peak RSS is read
    after ``rss_ops`` ops, a count every timed run reaches, so that it
    measures the growth of the library's global state over fixed work
    and not over however many ops fit in the run.  ``pool`` inputs are
    drawn during set-up, later ones between ops (outside the timed
    wall).  ``warmup`` untimed ops from a separate stream fill the
    library's caches before the first timed op.
    """

    prefix = 0
    rss_ops = MIN_OPS
    pool = 0
    warmup = 0
    traced = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.inputs: list[Op] = []
        # span files and import times of traced child processes
        self.span_files: list[str] = []
        self.import_s: list[dict] = []

    def setup(self) -> None:
        self.lib = _library()
        import oracle

        self.oracle = oracle
        self.prepare()
        self.fill(self.pool)
        main_rng, main_inputs = self.rng, self.inputs
        self.rng, self.inputs = random.Random(f"warmup-{self.seed}"), []
        self.fill(self.warmup)
        for op in self.inputs:
            try:
                self.call(op)
            except self.lib.errors.DepthCapExceededError:
                pass
        self.rng, self.inputs = main_rng, main_inputs

    def prepare(self) -> None:
        """Per-workload tables built once, during set-up."""

    def fill(self, count: int) -> None:
        while len(self.inputs) < count:
            op = self.draw(len(self.inputs))
            if op.bits is not None:
                op.form = self.lib.qform.DiagonalForm(
                    op.field.desc, tuple(self.lib.sqclass.SquareClass(
                        op.field.desc, b) for b in op.bits))
            self.inputs.append(op)

    def draw(self, i: int) -> Op:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, answer):
        """Raise CheckFailed on a wrong answer; return the op's invariant
        answer for the digest (no certificate terms)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- shared checks ---------------------------------------------------

    def check_pfister(self, op: Op, k: int, cert, n: int,
                      unscaled: bool = False) -> list:
        o = self.oracle
        terms = [o.spec_tuple(t) for t in cert.terms]
        o.check(cert.n == n, "certificate of the wrong fold")
        o.check_terms(op.field, k, terms, op.v, n, unscaled)
        target = [e.bits for e in cert.target.entries]
        o.check_form(op.field, target, op.v, "certificate target")
        return [k, target]

    def check_gp2_subform(self, op: Op, spec, comp) -> None:
        o, f = self.oracle, op.field
        o.check(len(spec.slots) == 2, "GP_2 subform of the wrong fold")
        sub = f.vector(f.spec_bits(*o.spec_tuple(spec)))
        rest = f.sub(op.v, sub)
        o.check(f.an_dim(sub) == 4, "GP_2 subform is isotropic")
        o.check(f.an_dim(rest) == len(op.bits) - 4,
                "GP_2 form is not a subform")
        o.check_form(f, [e.bits for e in comp.entries], rest,
                     "GP_2 complement")


F3_5 = ("F3", 5)


def _field(oracle, lib, base: str, nvars: int):
    desc = lib.sqclass.FieldDesc(lib.sqclass.Base[base], nvars)
    return oracle.Field(desc)


class Gp3Low(Workload):
    """GP_3 at dims 8, 12, 14 and classify14, over F3[t1..t5]."""

    prefix = 200
    rss_ops = 800
    pool = 400
    warmup = 8
    # "pn12u" forms are divisible by <<-1>> = <1,1>, whose slot is a unit
    # class, so the tensor reduction passes them on to the binary-divisor
    # route; random sums almost never are.
    CYCLE = (("pn", 8), ("pn", 12), ("pn", 14), ("c14", 14)) * 4 + (
        ("pn", 8), ("pn", 12), ("pn", 14), ("pn12u", 12))

    def prepare(self):
        self.f = _field(self.oracle, self.lib, *F3_5)

    def draw(self, i):
        kind, dim = self.CYCLE[i % len(self.CYCLE)]
        fixed = (self.f.minus_one,) if kind == "pn12u" else ()
        terms = (2,) if fixed else (1, 2, 3)
        v, bits = self.f.random_In(self.rng, 3, dim, terms, fixed)
        return Op(kind, self.f, v, bits)

    def call(self, op):
        if op.kind == "c14":
            return self.lib.pfnum.classify14(op.form)
        return self.lib.pfnum.pfister_number(op.form, 3)

    def check(self, op, answer):
        o = self.oracle
        if op.kind == "c14":
            k, cert = answer["gp3"], answer["certificate"]
            self.check_gp2_subform(op, answer["gp2_subform"],
                                   answer["gp2_complement"])
        else:
            k, cert = answer
        o.check(k in o.GP3_BY_DIM[len(op.bits)],
                f"GP_3 = {k} at dimension {len(op.bits)}")
        return [op.kind] + self.check_pfister(op, k, cert, 3)


class Dim16(Workload):
    """GP_3 and classify16 on 16-dimensional I^3 forms over F3[t1..t5],
    with a fixed share and shape of GP_3 = 3 forms."""

    prefix = 12
    pool = 120
    warmup = 2
    # (kind, GP_3): one GP_3 = 3 form in every six ops
    CYCLE = (("pn", 2), ("c16", 2), ("pn", 2), ("c16", 2), ("pn", 2),
             ("c16", 3), ("c16", 2), ("pn", 2), ("c16", 2), ("pn", 2),
             ("c16", 2), ("pn", 3))
    # The cost grows steeply with the number of doubled classes: proving
    # GP_3 > 2 takes about 0.4, 1.2 and 4.5 s with 0, 2 and 4 of them,
    # and classify16 of a GP_3 = 2 form with 8 can take 7 s.  Every form
    # is drawn with exactly two (the most common shape, 42 % of random
    # forms), so runs on different seeds do the same work.
    DOUBLED = 2

    def prepare(self):
        self.f = _field(self.oracle, self.lib, *F3_5)
        self.gens = self.oracle.Generators(self.f, 3, unscaled=False)

    def draw(self, i):
        kind, k = self.CYCLE[i % len(self.CYCLE)]
        while True:
            # two terms give GP_3 = 2 outright; three give 2 or 3
            v, bits = self.f.random_In(self.rng, 3, 16, terms=(k,))
            if v.count(2) != self.DOUBLED:
                continue
            if k == 2 or self.gens.minimal_terms(v, 3) == 3:
                return Op(kind, self.f, v, bits, k)

    def call(self, op):
        if op.kind == "pn":
            return self.lib.pfnum.pfister_number(op.form, 3)
        return self.lib.pfnum.classify16(op.form)

    def check(self, op, answer):
        o, f = self.oracle, self.f
        if op.kind == "pn":
            k, cert = answer
        else:
            k, cert = answer["gp3"], answer["certificate"]
            self.check_gp2_subform(op, answer["gp2_subform"],
                                   answer["gp2_complement"])
            four = [o.spec_tuple(t) for t in answer["gp2_decomposition"]]
            o.check_terms(f, 4, four, op.v, 2, False)
            o.check(all(f.an_dim(f.vector(f.spec_bits(*t))) == 4
                        for t in four), "isotropic GP_2 term")
            a, b = answer["splitting_pair"]
            o.check(o.hyperbolic_over(f, op.bits, (a.bits, b.bits)),
                    "splitting pair does not make the form hyperbolic")
        o.check(k == op.arg == self.gens.minimal_terms(op.v, 3),
                f"GP_3 = {k}, oracle says {op.arg}")
        return [op.kind] + self.check_pfister(op, k, cert, 3)


class SearchSmall(Workload):
    """pfister_number over small fields of every base, routed to the
    generator search."""

    prefix = 440
    rss_ops = 6000
    pool = 550
    warmup = 22
    # (base, nvars, n, unscaled, dim)
    CONFIGS = (
        ("F3", 4, 2, False, 10),
        ("F3", 4, 2, True, 8),
        ("F3", 4, 3, True, 12),
        ("R", 2, 2, True, 10),
        ("R", 2, 3, True, 16),
        ("C", 4, 2, False, 10),
        ("C", 4, 2, True, 8),
        ("C", 4, 3, True, 16),
        ("SQUARE_MINUS_ONE", 3, 2, False, 10),
        ("SQUARE_MINUS_ONE", 3, 2, True, 8),
        ("SQUARE_MINUS_ONE", 3, 3, True, 16),
    )

    def prepare(self):
        self.fields, self.gens = {}, {}
        for base, nvars, n, unscaled, _dim in self.CONFIGS:
            f = self.fields.setdefault(
                (base, nvars), _field(self.oracle, self.lib, base, nvars))
            self.gens[(base, nvars, n, unscaled)] = self.oracle.Generators(
                f, n, unscaled)

    def draw(self, i):
        base, nvars, n, unscaled, dim = self.CONFIGS[i % len(self.CONFIGS)]
        f = self.fields[(base, nvars)]
        v, bits = f.random_In(self.rng, n, dim)
        return Op("pn", f, v, bits, (base, nvars, n, unscaled))

    def call(self, op):
        _base, _nvars, n, unscaled = op.arg
        return self.lib.pfnum.pfister_number(op.form, n, unscaled=unscaled)

    def check(self, op, answer):
        _base, _nvars, n, unscaled = op.arg
        k, cert = answer
        oracle_k = self.gens[op.arg].minimal_terms(op.v, k)
        self.oracle.check(oracle_k == k,
                          f"P_{n} = {k}, oracle finds {oracle_k} terms")
        return self.check_pfister(op, k, cert, n, unscaled)


class CliOneshot(Workload):
    """One cold `python -m rigidwitt` process per op."""

    prefix = 21
    pool = 100
    warmup = 0
    CYCLE = ("analyze", "pfister-number", "classify14", "classify16",
             "decompose", "bounds", "tabulate")
    # payload keys that name one witness among several valid ones
    WITNESS_KEYS = ("gp2_subform", "gp2_complement", "gp2_decomposition",
                    "splitting_pair", "shape_ii")

    def prepare(self):
        self.fields = {key: _field(self.oracle, self.lib, *key)
                       for key in (("F3", 2), ("F3", 3), F3_5)}
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def fill(self, count):
        while len(self.inputs) < count:
            self.inputs.append(self.draw(len(self.inputs)))

    def draw(self, i):
        kind = self.CYCLE[i % len(self.CYCLE)]
        rng, o = self.rng, self.oracle
        if kind == "analyze":
            f = self.fields[("F3", 3)]
            bits = [f.draw(rng) for _ in range(rng.randrange(3, 7))]
            argv = ["--form", o.format_form(f, bits)]
        elif kind == "pfister-number":
            f = self.fields[("F3", 3)]
            _v, bits = f.random_In(rng, 2, rng.choice((6, 8)))
            argv = ["--form", o.format_form(f, bits), "--n", "2"]
        elif kind in ("classify14", "classify16"):
            f = self.fields[F3_5]
            dim = int(kind[-2:])
            # two terms: GP_3 = 2 is known up front at both dimensions
            v, bits = f.random_In(rng, 3, dim, terms=(2,))
            while dim == 16 and v.count(2) != Dim16.DOUBLED:
                v, bits = f.random_In(rng, 3, dim, terms=(2,))
            argv = ["--form", o.format_form(f, bits), "--dim", str(dim)]
            kind = "classify"
        elif kind == "decompose":
            f = self.fields[("F3", 2)]
            bits = self._decomposable(f)
            argv = ["--form", o.format_form(f, bits), "--at", "t2"]
        elif kind == "bounds":
            f, bits = None, None
            argv = ["--n", str(rng.choice((2, 3, 4))),
                    "--dmax", str(rng.randrange(16, 41, 2))]
        else:
            f, bits = self.fields[("F3", 2)], None
            argv = ["--field", str(f.desc), "--n", "2", "--dims", "4,6",
                    "--samples", "4", "--seed", str(rng.randrange(1000))]
        if f is not None and kind != "tabulate":
            argv = ["--field", str(f.desc), *argv, "--json"]
        v = f.vector(bits) if bits is not None else None
        return Op(kind, f, v, bits, [kind, *argv])

    def _decomposable(self, f):
        """A form over F3[t1,t2] that represents 1 and whose residue forms
        along t2 are both non-hyperbolic (decompose's preconditions)."""
        while True:
            bits = [f.draw(self.rng) for _ in range(self.rng.randrange(3, 7))]
            even = [b for b in bits if not b & 4]
            odd = [b for b in bits if b & 4]
            if (any(f.vector(even)) and any(f.vector(odd))
                    and self.oracle.represents(f, bits, 0)):
                return bits

    def call(self, op):
        if self.traced:
            spans = os.path.join(SPANS_DIR, f"cli-{len(self.span_files)}.npz")
            cmd = ["-X", "importtime", TRACER, spans, "--"]
        else:
            cmd = ["-m", "rigidwitt"]
        proc = subprocess.run(
            [sys.executable, *cmd, *op.arg], env=self.env,
            capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        if self.traced:
            self.span_files.append(spans)
            self.import_s.append(_import_times(proc.stderr))
        return proc.stdout

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _terms(self, f, out) -> list:
        """The certificate terms of a JSON payload, removed from it."""
        parse = self.oracle.parse_class
        return [(parse(f, t["scalar"]), tuple(parse(f, s) for s in t["slots"]))
                for t in out["certificate"].pop("terms")]

    def check(self, op, answer):
        o, f = self.oracle, op.field
        if op.kind in ("bounds", "tabulate"):
            rows = [line.split(",") for line in answer.split()]
            o.check(rows[0] in (["d", "bound"], ["dim", "samples", "max_gp"]),
                    f"bad CSV header {rows[0]}")
            for row in rows[1:]:
                if op.kind == "bounds":
                    n = int(op.arg[op.arg.index("--n") + 1])
                    o.check(int(row[1]) == o.pfister_bound(n, int(row[0])),
                            f"bound row {row} for n = {n}")
                else:
                    bound = o.pfister_bound(2, int(row[0]))
                    o.check(0 <= int(row[2]) <= bound,
                            f"tabulated GP_2 {row} above the bound")
            return answer
        out = json.loads(answer)
        o.check(out.pop("schema") == 1, "unknown JSON schema")
        if op.kind == "analyze":
            an = o.parse_form(f, out["anisotropic_part"])
            o.check_form(f, an, op.v, "anisotropic part")
            o.check(out["witt_index"] == (len(op.bits) - len(an)) // 2,
                    "wrong Witt index")
            values = {o.parse_class(f, x) for x in out["value_set"]}
            o.check(values == {x for x in f.classes
                               if o.represents(f, op.bits, x)},
                    "wrong value set")
            det = 0
            for b in op.bits:
                det ^= b
            o.check(o.parse_class(f, out["determinant"]) == det,
                    "wrong determinant")
        elif op.kind == "pfister-number":
            k = out["value"]
            o.check_terms(f, k, self._terms(f, out), op.v, 2, False)
            o.check(k <= o.pfister_bound(2, len(op.bits)),
                    "GP_2 above the bound")
        elif op.kind == "classify":
            o.check(out["gp3"] == 2, f"GP_3 = {out['gp3']} for a 2-term sum")
            o.check_terms(f, 2, self._terms(f, out), op.v, 3, False)
            if out["dim"] == 16:
                four = [o.parse_spec(f, t) for t in out["gp2_decomposition"]]
                o.check_terms(f, 4, four, op.v, 2, False)
                pair = [o.parse_class(f, x) for x in out["splitting_pair"]]
                o.check(o.hyperbolic_over(f, op.bits, pair),
                        "splitting pair does not make the form hyperbolic")
            for key in self.WITNESS_KEYS:
                out.pop(key, None)
        elif op.kind == "decompose":
            t = o.parse_class(f, out["t"])
            sigma = o.parse_form(f, out["sigma"])
            tau = o.parse_form(f, out["tau"])
            total = sigma + tau + [t ^ b for b in tau]
            o.check(f.vector(total) == op.v,
                    "sigma + <1,t> (x) tau is not Witt-equivalent")
        return out


WORKLOADS = {
    "gp3-low": Gp3Low,
    "dim16": Dim16,
    "search-small": SearchSmall,
    "cli-oneshot": CliOneshot,
}


# --- the measurement ------------------------------------------------------

def run_ops(wl: Workload, seconds: float, count: int | None,
            profiler=None) -> dict:
    """Closed loop: the next op starts when the previous one returned.

    Each answer is checked right after its op.  Drawing inputs beyond the
    set-up pool and checking answers are left out of the timed wall.
    """
    from oracle import CheckFailed

    refusal = wl.lib.errors.DepthCapExceededError
    clock = time.perf_counter
    latencies, failures, items, refused = [], [], [], []
    passed = raised = refused_total = 0
    untimed = 0.0
    peak_rss_mb = None
    begin = clock()
    i = 0
    while True:
        t = clock()
        if i >= len(wl.inputs):
            wl.fill(i + 1)
        op = wl.inputs[i]
        if profiler is not None:
            profiler.enable()
        t0 = clock()
        try:
            answer, status = wl.call(op), "ok"
        except refusal:
            answer, status = None, "refused"
        except Exception as exc:  # an op that raised is counted, not fatal
            answer, status = f"{type(exc).__name__}: {exc}", "raised"
        t1 = clock()
        if profiler is not None:
            profiler.disable()
        latencies.append(t1 - t0)
        if status == "refused":
            refused_total += 1
            if i < wl.prefix:
                refused.append(i)
        elif status == "raised":
            raised += 1
            failures.append(f"op {i} ({op.kind}) raised {answer}")
        else:
            try:
                item = wl.check(op, answer)
            except CheckFailed as exc:
                failures.append(f"op {i} ({op.kind}): {exc}")
            else:
                passed += 1
                if i < wl.prefix:
                    items.append([i, item])
        t2 = clock()
        untimed += (t0 - t) + (t2 - t1)
        i += 1
        if i == wl.rss_ops:
            peak_rss_mb = wl.peak_rss_mb()
        if count is not None:
            if i >= count:
                break
        elif (t2 - begin >= seconds
              and i >= max(wl.prefix, wl.rss_ops, MIN_OPS)):
            break
    return {"wall_s": clock() - begin - untimed, "latencies": latencies,
            "peak_rss_mb": peak_rss_mb or wl.peak_rss_mb(),
            "attempted": i, "passed": passed, "raised": raised,
            "refused": refused, "refused_total": refused_total,
            "failures": failures, "items": items}


def main(argv: list[str]) -> int:
    name, seed, mode, seconds, spawned = argv
    wl = WORKLOADS[name](int(seed))
    wl.setup()
    setup_s = time.perf_counter() - float(spawned)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    from tracer import Tracer, cache_state

    count = None if mode == "run" else wl.prefix
    result = {"setup_s": setup_s}
    if mode == "trace":
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer = Tracer()
        tracer.install()
        wl.traced = True
        result.update(run_ops(wl, float(seconds), count))
        path = os.path.join(SPANS_DIR, f"{name}-{seed}.npz")
        tracer.dump(path, cache_state())
        result["spans"] = [path] + wl.span_files
        result["import_s"] = wl.import_s
    elif mode == "profile":
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result.update(run_ops(wl, float(seconds), count, profiler))
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "tottime").print_stats(int(seconds))
    else:
        result.update(run_ops(wl, float(seconds), count))
    result["state"] = cache_state()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
