"""The benchmark's seeded workloads, their operations and correctness oracles.

A seed draws every input: the prime of the large configurations, and the
query strings.  The library receives only those generated `(p, q)` pairs
and strings, through its public entry points.  Each pass runs the
workload's operations one at a time (a closed loop with one client):

* reduced-large  -- `cli.run` in reduced mode with verification, then
  `cli.dump_structure`, on the acceptance sweep plus `(p, 16)` and
  `(p, 24)`.  After the passes, the last structure text is parsed back
  and queried.
* brute-oracle   -- the same in brute-force mode on the sweep plus `(p, 10)`.
* query-file     -- `cli.parse_structure` and 10k `cli.run_query` calls on
  one reduced and one brute structure file of a small seeded `(p, q)`,
  interleaved with 1k `AInfinityRecord.extend_linear` calls on the
  reduced record.

An operation is one configuration or one query.  Every operation is
checked right after it, outside its timed window, and one that raises
counts as failed:

* a configuration must pass the verifier, halt at `q + 1`, have
  `m_q(x, ..., x)` nonzero in degree 2 and every other `m_k(x, ..., x)`
  zero, and on the sweep points carry the pinned `m_q` sign;
* a product answer must equal the closed form of the structure (the
  ring product, `m_q(x, ..., x) = sign * y`, y-linearity and strict
  unitality) and, on query-file, the record's `extend_linear` value;
* a map answer must match the record's map in degree and in components
  over one period.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import time
from array import array
from pathlib import Path

from ainfinity import cli
from ainfinity.kadeishvili import HElement

SWEEP = [(2, 4), (2, 8), (3, 3), (3, 9), (5, 5)]
#: m_q(x, ..., x) = sign * y on the sweep points, in both modes (the
#: acceptance tests pin the same values)
RECORDED_MQ_SIGN = {(2, 4): 1, (2, 8): 1, (3, 3): 1, (3, 9): 2, (5, 5): 4}
PRIMES = (2, 3, 5, 7)
WORKLOADS = ("reduced-large", "brute-oracle", "query-file")

X = (1, 0)
#: slot monomials (e, j) = x^e y^j of generated queries: x and its
#: y-multiples, the unit, and y.  No record of how the library is queried
#: exists, so the mix is a plain synthetic one: every choice below (kind,
#: slot, arity, coefficient, file) is uniform over its options.
SLOTS = ((1, 0), (1, 1), (1, 2), (0, 0), (0, 1))
QUERY_KINDS = ("product", "map")
#: Uniform slots rarely give a nonzero higher product: every slot must be
#: x-type at arity q, (3/5)^q of those tuples.  One query in `AT_Q_EVERY`
#: is drawn at arity q from x-type slots, so that each run checks such
#: answers too.
AT_Q_EVERY = 20
X_TYPE = SLOTS[:3]
MAX_PROBLEMS = 20


def _slot_name(mono) -> str:
    return {(1, 0): "x", (1, 1): "y*x", (1, 2): "y^2*x",
            (0, 0): "1", (0, 1): "y"}[mono]


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class QueryTimes:
    """Least latency of each query over the first `limit` rounds of a run.

    On a shared 2-vCPU VM, other tenants of the host slow it in bursts of
    a few milliseconds, over a share of the time that changes from second
    to second and from run to run: the same query takes 250 or 450 us
    depending on the burst, and the median of one round moved by a third
    between rounds and between runs.  A query's least time over rounds a few hundred
    milliseconds apart drops most of that interference; the more rounds,
    the fewer queries stay slow in all of them.  Long queries catch a
    quiet stretch least often, so the top percent stayed unsteady (p99
    moved by a quarter between runs) and p90 is the highest percentile
    reported.  Later rounds are not used, so every run takes the least of
    the same number of samples.
    """

    def __init__(self, count: int, limit: int):
        self.best = array("d", [math.inf]) * count
        self.limit = limit
        self.rounds = 0

    def record(self, index: int, seconds: float):
        if self.rounds < self.limit and seconds < self.best[index]:
            self.best[index] = seconds

    def end_round(self):
        self.rounds += 1

    def metrics(self) -> dict:
        """p50 and p90 of the per-query least latency, and the closed-loop
        rate they imply (one client: queries / summed latency).  A query
        that raised in every round has no latency and is left out; it
        counts as failed."""
        latencies = sorted(t for t in self.best if t != math.inf)
        if not latencies:
            return {"query_p50_us": 0.0, "query_p90_us": 0.0, "queries_per_s": 0.0,
                    "queries": 0, "rounds": min(self.rounds, self.limit)}
        return {"query_p50_us": percentile(latencies, 50) * 1e6,
                "query_p90_us": percentile(latencies, 90) * 1e6,
                "queries_per_s": len(latencies) / sum(latencies),
                "queries": len(latencies), "rounds": min(self.rounds, self.limit)}


class PassTiming:
    """Timed quantities of one pass."""

    def __init__(self):
        self.wall_s = 0.0          # the timed part of the pass, as it ran
        self.window_length = 0


# ----- query generation ------------------------------------------------------------

class Query:
    __slots__ = ("kind", "key", "coeffs", "text")

    def __init__(self, kind: str, key: tuple, coeffs: tuple):
        self.kind, self.key, self.coeffs = kind, key, coeffs
        slots = [_slot_name(m) if c == 1 else f"{c}*{_slot_name(m)}"
                 for m, c in zip(key, coeffs)]
        self.text = f"{kind}: " + ", ".join(slots)


def max_y_weight(truncation: int) -> int:
    """Largest total y-power whose map value stays inside the window: the
    record needs degree 2e homology (window margin 4) and the check reads
    one period above degree 2e + 1."""
    return (truncation - 8) // 2


def generate_query(rng: random.Random, kind: str, p: int, q: int,
                   max_weight: int, min_arity: int | None = None) -> Query:
    """One seeded product or map query: arity uniform from `min_arity`
    (default 1, or 2 for maps, as f_1 is the identity embedding) to
    2q + 3, past halting; each slot uniform over `SLOTS`; each product
    slot scaled by a coefficient uniform over the units of F_p.  One query
    in `AT_Q_EVERY` is drawn at arity q from x-type slots instead.  Tuples
    whose y-power exceeds `max_weight` are drawn again."""
    low = min_arity or (1 if kind == "product" else 2)
    while True:
        if rng.randrange(AT_Q_EVERY) == 0:
            n, slots = q, X_TYPE
        else:
            n, slots = rng.randint(low, 2 * q + 3), SLOTS
        key = tuple(rng.choice(slots) for _ in range(n))
        if sum(j for _, j in key) <= max_weight:
            break
    if kind == "map":
        coeffs = (1,) * n
    else:
        coeffs = tuple(rng.randrange(1, p) for _ in range(n))
    return Query(kind, key, coeffs)


# ----- oracles ----------------------------------------------------------------------

def expected_product(p: int, q: int, sign: int, key: tuple, coeffs: tuple) -> HElement:
    """m_n on a tuple of scaled monomials, from the closed form of the
    structure: m_2 is the ring product of exterior(x) (x) k[y], the only
    nonzero higher product is m_q(x, ..., x) = sign * y, extended
    y-linearly, and m_n vanishes for n >= 3 when a slot has no x."""
    n = len(key)
    scale = 1
    for c in coeffs:
        scale = scale * c % p
    if n == 2:
        (e1, j1), (e2, j2) = key
        if e1 and e2:
            return HElement(p)
        return HElement(p, {(e1 + e2, j1 + j2): scale})
    if n != q or any(e == 0 for e, _ in key):
        return HElement(p)
    return HElement(p, {(0, 1 + sum(j for _, j in key)): sign * scale})


class MapOracle:
    """f_n of a record on monomial tuples: the stored value, zero by strict
    unitality or halting, or the y-linear extension zeta^e o f_n(x, ..., x).

    The extension is composed here from the degree-2 cocycle's powers, so
    no homology of a new degree (a window-global matrix) is built; values
    are cached by (arity, y-weight).
    """

    def __init__(self, record):
        self.record = record
        self.algebra = record.algebra
        self.period = record.algebra.resolution.period
        self._zeta = {0: self.algebra.identity()}
        self._shifted = {}

    def value(self, key: tuple):
        """The map as a GradedEndomorphism, or None when it is zero."""
        record = self.record
        n = len(key)
        if any(m == (0, 0) for m in key):
            return None
        stored = record.f_table.get(key)
        if stored is not None:
            return stored
        if record.halted_at is not None and n >= record.halted_at:
            return None
        if any(e == 0 for e, _ in key):
            return None
        e = sum(j for _, j in key)
        cached = self._shifted.get((n, e))
        if cached is None:
            cached = self.algebra.compose(self._zeta_power(e),
                                          record.f_table[(X,) * n])
            self._shifted[(n, e)] = cached
        return cached

    def _zeta_power(self, e: int):
        if e not in self._zeta:
            self._zeta[e] = self.algebra.compose(self.algebra.rep_y(),
                                                 self._zeta_power(e - 1))
        return self._zeta[e]

    def components(self, key: tuple):
        """(degree, [component entries over one period]) or None."""
        value = self.value(key)
        if value is None or value.is_zero():
            return None
        return value.degree, [value.component(value.degree + i).entries.tolist()
                              for i in range(self.period)]


_POSITION_RE = re.compile(r"^\s*position (\d+)(?: \(mod \d+\))?: (.*)$")


def check_map_answer(lines: list, expected) -> list[str]:
    """Compare `cli.run_query` map output with (degree, components), or
    with None for the zero map.  A file may store a zero map explicitly,
    so a listing whose every component is zero also answers None."""
    if lines == ["0 (zero map)"]:
        return [] if expected is None else ["zero map, but the record's map is not"]
    m = re.match(r"^degree (\d+)", lines[0]) if lines else None
    if m is None:
        return [f"unreadable map answer {lines[:1]}"]
    got = []
    for line in lines[2:] if expected is None else lines[2:2 + len(expected[1])]:
        pm = _POSITION_RE.match(line)
        if pm is None:
            return [f"unreadable component line {line!r}"]
        got.append((int(pm.group(1)), json.loads(pm.group(2))))
    if expected is None:
        if any(_nonzero(comp) for _, comp in got):
            return ["nonzero map, but the record's map is zero"]
        return []
    degree, comps = expected
    if int(m.group(1)) != degree:
        return [f"degree {m.group(1)}, expected {degree}"]
    if got != [(degree + i, c) for i, c in enumerate(comps)]:
        return ["components over one period differ from the record's map"]
    return []


def _nonzero(nested) -> bool:
    return any(_nonzero(v) for v in nested) if isinstance(nested, list) else nested != 0


def check_product_answer(lines: list, expected: HElement) -> list[str]:
    if lines != [str(expected)]:
        return [f"answer {lines} but expected {expected}"]
    return []


def check_record_value(m_value: HElement, f_value, expected_m: HElement,
                       expected_f, coeff: int, p: int) -> list[str]:
    """Check one `extend_linear` result against the closed form and the
    map oracle (the map scaled by the product of the slot coefficients)."""
    problems = []
    if m_value != expected_m:
        problems.append(f"product {m_value} but expected {expected_m}")
    if expected_f is None:
        if not f_value.is_zero():
            problems.append("expected a zero map")
    else:
        degree, comps = expected_f
        got = [f_value.component(degree + i).entries.tolist()
               for i in range(len(comps))] if f_value.degree == degree else None
        want = [[[[c * coeff % p for c in poly] for poly in row] for row in comp]
                for comp in comps]
        if got != want:
            problems.append("map differs from the record's map")
    return problems


def configuration_facts(result) -> dict:
    """What the configuration checks read from a `cli.RunResult`."""
    record, summary = result.record, result.summary
    products = {}
    for k in summary.computed_arities:
        value = record.m_table.get((X,) * k)
        if value is not None:
            products[k] = (value.degree, int(value.coords[0]) if value.coords else 0)
    return {
        "p": summary.p, "q": summary.q, "exit_code": result.exit_code,
        "verified": bool(result.report is not None and result.report.passed),
        "halted_at": summary.halted_at, "mq_sign": summary.mq_sign,
        "file_mq_sign": result.document["header"]["mq_sign"],
        "products": products,
    }


def check_configuration(facts: dict) -> list[str]:
    p, q = facts["p"], facts["q"]
    problems = []
    if facts["exit_code"] != 0 or not facts["verified"]:
        problems.append("the Stasheff verifier did not pass")
    if facts["halted_at"] != q + 1:
        problems.append(f"halting arity {facts['halted_at']}, expected {q + 1}")
    degree, coeff = facts["products"].get(q, (None, 0))
    if degree != 2 or coeff == 0:
        problems.append(f"m_{q}(x,...,x) is not a nonzero degree-2 class")
    for k, (_, c) in sorted(facts["products"].items()):
        if k != q and c:
            problems.append(f"m_{k}(x,...,x) is nonzero")
    if facts["mq_sign"] != coeff or facts["file_mq_sign"] != coeff:
        problems.append("the summary or the file disagrees with the m_q table")
    pinned = RECORDED_MQ_SIGN.get((p, q))
    if pinned is not None and coeff != pinned:
        problems.append(f"m_q sign {coeff} differs from the pinned {pinned}")
    return problems


# ----- workloads --------------------------------------------------------------------

class ComputeWorkload:
    """Compute, verify and serialize each configuration, once per pass.
    After the passes, the structure text of the last (largest)
    configuration is parsed back and queried for `READBACK_ROUNDS` rounds;
    those reads give this workload's query metrics.  They run once per
    run, not once per pass, so that the compute passes get the run's time.
    """

    def __init__(self, name: str, points: list, mode: str, rng: random.Random,
                 readback: int):
        self.name, self.points, self.mode = name, points, mode
        p, q = points[-1]
        limit = max_y_weight(cli.default_truncation(2 * q))
        self.queries = [generate_query(rng, rng.choice(QUERY_KINDS), p, q, limit)
                        for _ in range(readback)]
        self.times = QueryTimes(len(self.queries), READBACK_ROUNDS)
        self.config_best = [math.inf] * len(points)
        self.text = self.expected = None

    def wall_s(self) -> float:
        """Summed least time of each configuration over the run's passes
        (a configuration that raised in every pass has none)."""
        return sum(t for t in self.config_best if t != math.inf)

    def another_pass(self, used: float, last: float, seconds: float) -> bool:
        """Whether a timed run makes one more pass: while it fits."""
        return used + last <= seconds

    def set_up(self, tally: Tally):
        # first calls through every entry point a pass uses, on a tiny case
        result = cli.run(cli.RunConfig(p=2, q=3, max_arity=6, mode=self.mode,
                                       verify=True))
        doc = cli.parse_structure(cli.dump_structure(result.document))
        cli.run_query("product: x, x, x", doc)
        cli.run_query("map: y*x, x", doc)

    def run_pass(self, tally: Tally, tracer=None) -> PassTiming:
        timing = PassTiming()
        for index, (p, q) in enumerate(self.points):
            config = cli.RunConfig(p=p, q=q, max_arity=2 * q, mode=self.mode,
                                   verify=True)
            what = f"{self.mode} ({p},{q})"
            if tracer:
                tracer.enter_op("bench.configuration", index)
            t0 = time.perf_counter()
            try:
                result = cli.run(config)
                text = cli.dump_structure(result.document)
            except Exception as exc:
                tally.record(what, [f"raised {exc!r}"])
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.leave_op()
            timing.wall_s += elapsed
            self.config_best[index] = min(self.config_best[index], elapsed)
            facts = configuration_facts(result)
            tally.record(what, check_configuration(facts))
            timing.window_length = max(timing.window_length, result.summary.truncation)
            if index == len(self.points) - 1 and self.text is None:
                self.text = text
                self.expected = self._expected_answers(result.record,
                                                       facts["mq_sign"] or 0)
            del result
            gc.collect()
        return timing

    def read_back(self, tally: Tally, tracer=None):
        """The read rounds.  They run after the record is released, as a
        reader of the file would: a live record of the largest
        configuration holds over a gigabyte, and its heap made the read
        latencies unsteady."""
        p, q = self.points[-1]
        for _ in range(READBACK_ROUNDS):
            if self.text is None:  # the configuration raised in every pass
                for query in self.queries:
                    tally.record(f"({p},{q}) {query.text}", ["no structure to read"])
                continue
            self._read_round(tally, tracer)

    def _expected_answers(self, record, sign: int) -> list:
        """Expected value of each read-back query, from the closed form for
        products and the record's map for maps."""
        p, q = self.points[-1]
        oracle = MapOracle(record)
        return [expected_product(p, q, sign, query.key, query.coeffs)
                if query.kind == "product" else oracle.components(query.key)
                for query in self.queries]

    def _read_round(self, tally: Tally, tracer):
        p, q = self.points[-1]
        if tracer:
            tracer.enter_op("bench.parse", 0)
        try:
            doc = cli.parse_structure(self.text)
        except Exception as exc:
            doc, parse_error = None, f"parse_structure raised {exc!r}"
        finally:
            if tracer:
                tracer.leave_op()
        for index, (query, want) in enumerate(zip(self.queries, self.expected)):
            what = f"({p},{q}) {query.text}"
            if doc is None:
                tally.record(what, [parse_error])
                continue
            if tracer:
                tracer.enter_op("bench.query", index)
            t0 = time.perf_counter()
            try:
                answer = cli.run_query(query.text, doc)
            except Exception as exc:
                tally.record(what, [f"raised {exc!r}"])
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.leave_op()
            self.times.record(index, dt)
            if query.kind == "product":
                problems = check_product_answer(answer, want)
            else:
                problems = check_map_answer(answer, want)
            tally.record(what, problems)
        self.times.end_round()


class QueryWorkload:
    """Reads of one reduced and one brute structure file, plus linear
    extension on the reduced record kept from set-up."""

    def __init__(self, rng: random.Random, q: int, file_queries: int,
                 record_queries: int, artifacts: Path):
        self.p = rng.choice(PRIMES)
        # q is fixed: the file sizes, and so every query-file metric, grow
        # with q, and a seeded q moved wall_s by 60% from seed to seed
        self.q = q
        self.artifacts = artifacts
        limit = max_y_weight(cli.default_truncation(2 * self.q))
        # ("reduced" | "brute" | "record", Query), in the order they are sent
        self.ops = [(rng.choice(("reduced", "brute")),
                     generate_query(rng, rng.choice(QUERY_KINDS), self.p, self.q,
                                    limit))
                    for _ in range(file_queries)]
        # a record query returns both m_n and f_n, so it starts at arity 2
        # as map queries do
        for _ in range(record_queries):
            query = generate_query(rng, "product", self.p, self.q, limit, min_arity=2)
            self.ops.insert(rng.randrange(len(self.ops) + 1), ("record", query))
        self.times = QueryTimes(len(self.ops), FILE_ROUNDS)
        self.parse_best = math.inf

    def wall_s(self) -> float:
        """The parse and every operation, each at its least time over the
        first `FILE_ROUNDS` passes."""
        return self.parse_best + sum(t for t in self.times.best if t != math.inf)

    def another_pass(self, used: float, last: float, seconds: float) -> bool:
        """Whether a timed run makes one more pass: until the queries have
        had their rounds, and then while the next pass fits."""
        return self.times.rounds < self.times.limit or used + last <= seconds

    def read_back(self, tally: Tally, tracer=None):
        """Nothing to do: the passes are the reads."""

    def set_up(self, tally: Tally):
        p, q = self.p, self.q
        self.texts = {}
        for mode in ("reduced", "brute-force"):
            result = cli.run(cli.RunConfig(p=p, q=q, max_arity=2 * q, mode=mode,
                                           verify=True))
            facts = configuration_facts(result)
            tally.record(f"{mode} ({p},{q})", check_configuration(facts))
            path = self.artifacts / f"query-file-{p}-{q}-{mode}.json"
            path.write_text(cli.dump_structure(result.document))
            self.texts[mode.split("-")[0]] = path.read_text()
            if mode == "reduced":
                self.record = result.record
                self.sign = facts["mq_sign"] or 0
        self.oracle = MapOracle(self.record)
        self.window_length = self.record.algebra.resolution.length
        self.slots = {}
        self._expected_ext = {}
        warmed = set()
        for where, query in self.ops:
            if where != "record":
                continue
            self.slots[query.text] = [HElement.monomial(p, m, c)
                                      for m, c in zip(query.key, query.coeffs)]
            # first use of each y-weight and arity fills the record's caches
            shape = (len(query.key), sum(j for _, j in query.key))
            if shape not in warmed:
                warmed.add(shape)
                self.record.extend_linear(self.slots[query.text])

    def run_pass(self, tally: Tally, tracer=None) -> PassTiming:
        timing = PassTiming()
        timing.window_length = self.window_length
        if tracer:
            tracer.enter_op("bench.parse", 0)
        t0 = time.perf_counter()
        try:
            docs = {kind: cli.parse_structure(text) for kind, text in self.texts.items()}
        except Exception as exc:
            docs, parse_error = {}, f"parse_structure raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.leave_op()
        timing.wall_s += elapsed
        if self.times.rounds < self.times.limit:
            self.parse_best = min(self.parse_best, elapsed)
        for index, (where, query) in enumerate(self.ops):
            what = f"{where} {query.text}"
            if where != "record" and not docs:
                tally.record(what, [parse_error])
                continue
            if tracer:
                tracer.enter_op("bench.query", index)
            t0 = time.perf_counter()
            try:
                if where == "record":
                    outcome = self.record.extend_linear(self.slots[query.text])
                else:
                    outcome = cli.run_query(query.text, docs[where])
            except Exception as exc:
                tally.record(what, [f"raised {exc!r}"])
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.leave_op()
            timing.wall_s += dt
            self.times.record(index, dt)
            tally.record(what, self._check(where, query, outcome))
        self.times.end_round()
        return timing

    def _check(self, where: str, query: Query, outcome) -> list[str]:
        """`outcome` is the (m, f) pair of `extend_linear` for a record
        query and the answer lines of `cli.run_query` otherwise."""
        p = self.p
        closed = expected_product(p, self.q, self.sign, query.key, query.coeffs)
        if where == "record":
            coeff = 1
            for c in query.coeffs:
                coeff = coeff * c % p
            m_value, f_value = outcome
            return check_record_value(m_value, f_value, closed,
                                      self.oracle.components(query.key), coeff, p)
        answer = outcome
        if query.kind == "map":
            return check_map_answer(answer, self.oracle.components(query.key))
        problems = check_product_answer(answer, closed)
        ext = self._expected_ext.get(query.text)
        if ext is None:
            slots = [HElement.monomial(p, m, c) for m, c in zip(query.key, query.coeffs)]
            ext = self._expected_ext[query.text] = self.record.extend_linear(slots)[0]
        return problems + check_product_answer(answer, ext)


#: rounds of queries whose least times a run reports: a compute run reads
#: its 1200 read-back queries this often after its passes, and a query-file
#: run makes this many passes of 11k operations at least
READBACK_ROUNDS = 20
FILE_ROUNDS = 12
#: read-back queries of a compute run; query-file's exponent and its file
#: and record query counts.  "smoke" is for the benchmark's own tests.
SIZES = {
    "full": {"readback": 1200, "query_q": 5, "file": 10000, "record": 1000},
    "smoke": {"readback": 20, "query_q": 4, "file": 300, "record": 100},
}


def build(name: str, seed: int, artifacts: Path, smoke: bool = False):
    """The workload `name` with every input drawn from `seed`."""
    rng = random.Random(seed)
    size = SIZES["smoke" if smoke else "full"]
    if name == "reduced-large":
        p = rng.choice(PRIMES)
        points = [(2, 4), (3, 3), (p, 5)] if smoke else SWEEP + [(p, 16), (p, 24)]
        return ComputeWorkload(name, points, "reduced", rng, size["readback"])
    if name == "brute-oracle":
        p = rng.choice(PRIMES)
        points = [(2, 4), (3, 3), (p, 4)] if smoke else SWEEP + [(p, 10)]
        return ComputeWorkload(name, points, "brute-force", rng, size["readback"])
    if name == "query-file":
        return QueryWorkload(rng, size["query_q"], size["file"], size["record"],
                             artifacts)
    raise ValueError(f"unknown workload {name!r}")
