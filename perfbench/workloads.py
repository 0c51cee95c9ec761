"""Seeded inputs for the benchmark workloads, each with its expected answer.

A workload is a list of rounds; a round is a list of ``Op``.  Every op is
a ``logcouple`` command line plus a check of its exit code and stdout that
uses only ``oracle`` (never the package), so a wrong answer counts as a
failed operation.  Sizes are drawn evenly from fixed ranges (``_spread``):
every seed gets different inputs but the same size distribution, which
keeps the medians and tails comparable from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import oracle as O

Check = Callable[[Optional[int], str], Optional[str]]


class Op:
    """One command: its argv, the check of (exit code, stdout), and the trials it runs."""

    __slots__ = ("argv", "check", "suite", "trials")

    def __init__(self, argv: List[str], check: Check, suite: str = "", trials: int = 0):
        self.argv = argv
        self.check = check
        self.suite = suite
        self.trials = trials


_GOLDEN = (5**0.5 - 1) / 2


def _spread(rng: random.Random, values: Sequence) -> Iterator:
    """Endless stream over ``values`` that covers them evenly in every prefix.

    A golden-ratio sequence from a seeded start: each seed, and each run
    length, sees nearly the same distribution of sizes.
    """
    values = list(values)
    x = rng.random()
    while True:
        yield values[int(x * len(values))]
        x = (x + _GOLDEN) % 1.0


def _expect(rc_want: int, stdout_want: str) -> Check:
    def check(rc: Optional[int], out: str) -> Optional[str]:
        if rc != rc_want or out != stdout_want:
            return f"exit {rc}, stdout {out[:200]!r}; want exit {rc_want}, {stdout_want[:200]!r}"
        return None

    return check


def _expect_json(want: object, rc_want: int = 0) -> Check:
    def check(rc: Optional[int], out: str) -> Optional[str]:
        try:
            got = json.loads(out)
        except ValueError:
            got = None
        if rc != rc_want or got != want:
            return f"exit {rc}, stdout {out[:200]!r}; want exit {rc_want}, {json.dumps(want)[:200]}"
        return None

    return check


# --- laws and growth: the checking suites through `logcouple check` -------------

LAW_SUITES = ("axioms", "successor", "lemma41", "lemma44")
LAW_TRIALS = range(10, 33, 2)
GROWTH_TRIALS = range(3, 10)
GROWTH_ROUND = 4
SUITE_ROUNDS = 400


def _check_op(suite: str, seed: int, trials: int) -> Op:
    def check(rc: Optional[int], out: str) -> Optional[str]:
        try:
            report = json.loads(out)
        except ValueError:
            return f"exit {rc}, stdout is not JSON: {out[:200]!r}"
        got = {k: report.get(k) for k in ("suite", "seed", "trials", "passed", "failure_count")}
        want = {"suite": suite, "seed": seed, "trials": trials, "passed": True, "failure_count": 0}
        if rc != 0 or got != want:
            return f"exit {rc}, report {got}; want exit 0, {want}"
        return None

    argv = ["check", suite, "--seed", str(seed), "--trials", str(trials), "--json"]
    return Op(argv, check, suite, trials)


def laws(seed: int, workdir: str) -> List[List[Op]]:
    rng = random.Random(f"laws:{seed}")
    trials = _spread(rng, LAW_TRIALS)
    rounds = []
    for _ in range(SUITE_ROUNDS):
        t, s = next(trials), rng.randrange(1 << 31)
        rounds.append([_check_op(suite, s, t) for suite in LAW_SUITES])
    return rounds


def growth(seed: int, workdir: str) -> List[List[Op]]:
    rng = random.Random(f"growth:{seed}")
    trials = _spread(rng, GROWTH_TRIALS)
    return [
        [_check_op("subspace-growth", rng.randrange(1 << 31), next(trials)) for _ in range(GROWTH_ROUND)]
        for _ in range(SUITE_ROUNDS)
    ]


# --- session: a stream of mixed CLI commands ------------------------------------

SESSION_BLOCKS = 32
BLOCK = (
    ["small"] * 40
    + ["fmt"] * 30
    + ["sum"] * 6
    + ["chain"] * 6
    + ["bang"] * 6
    + ["sub_psi"] * 2
    + ["sub_s"] * 3
    + ["sub_p"] * 2
    + ["growth"] * 3
    + ["witness"] * 2
)
SUM_TERMS = range(100, 301, 10)  # under half the 987-term limit
CHAIN_DEPTH = range(20, 101, 4)  # under half the 244-level nesting limit
BANG_DEPTH = range(60, 301, 12)  # under half the 978-'!' limit
SPAN_DIM = range(8, 17)
SPAN_SUPPORT = 31
GROWTH_BASE = range(6, 13)
WITNESS_COUNT = range(100, 301, 5)


_COEFFS = [Fraction(sign * num, den) for num in range(1, 10) for sign in (1, -1) for den in range(1, 5)]
_POSITIVE = [q for q in _COEFFS if q > 0]


def _coeff(rng: random.Random) -> Fraction:
    """Nonzero n/d with |n| <= 9 and d <= 4."""
    return rng.choice(_COEFFS)


def _element(rng: random.Random, nonzero: bool = False) -> Dict[int, Fraction]:
    while True:
        x = {i: _coeff(rng) for i in rng.sample(range(9), rng.randint(0, 4))}
        if x or not nonzero:
            return x


def _prefixed(rng: random.Random, k: int) -> Dict[int, Fraction]:
    """Ones below k and a non-one coefficient at k, so ``s`` has level k."""
    x = O.psi_member(k - 1)
    x[k] = 1 + _coeff(rng)
    for i in rng.sample(range(k + 1, k + 10), rng.randint(0, 2)):
        x[i] = _coeff(rng)
    return {i: q for i, q in x.items() if q != 0}


def _scale(x: Dict[int, Fraction], q: Fraction) -> Dict[int, Fraction]:
    return {i: c * q for i, c in x.items()} if q else {}


def _var(name: str) -> tuple:
    return ("var", name)


def _app(func: str, node: tuple) -> tuple:
    return ("app", func, node)


def _eval_op(node: tuple, env: Dict[str, O.Element], fail_on_false: bool = False) -> Op:
    value = O.evaluate(node, env)
    argv = ["eval", O.canonical(node)]
    for name, element in env.items():
        argv += ["--let", f"{name}={O.fmt(element)}"]
    rc = 0
    if isinstance(value, bool):
        out = "true" if value else "false"
        if fail_on_false:
            argv.append("--fail-on-false")
            rc = 0 if value else 1
    else:
        out = O.fmt(value)
    return Op(argv, _expect(rc, out + "\n"))


def _small_eval(rng: random.Random, kind: int) -> Op:
    """Planted law instances and maps with closed forms."""
    a, b, x = _var("a"), _var("b"), _var("x")
    if kind <= 2:  # successor identity (true); with s(b) it is false, once under --fail-on-false
        k1, k2 = sorted(rng.sample(range(9), 2))
        env = {"a": _prefixed(rng, k1), "b": _prefixed(rng, k2)}
        rhs = _app("s", a if kind == 0 else b)
        return _eval_op(("eq", _app("psi", ("add", a, ("neg", b))), rhs), env, kind == 2)
    if kind == 3:  # s is monotone across prefix levels
        k1, k2 = sorted(rng.sample(range(9), 2))
        env = {"a": _prefixed(rng, k1), "b": _prefixed(rng, k2)}
        return _eval_op(("lt", _app("s", a), _app("s", b)), env)
    env = {"x": _element(rng, nonzero=True)}
    if kind == 4:  # derivative after integral
        ix = _app("int", x)
        return _eval_op(("eq", ("add", ix, _app("psi", ix)), x), env)
    if kind == 5:  # integral after derivative
        return _eval_op(("eq", _app("int", ("add", x, _app("psi", x))), x), env)
    if kind == 6:  # psi is invariant under nonzero scaling
        scaled = rng.choice((("div", x, rng.randint(2, 9)), ("neg", x), ("add", x, x)))
        return _eval_op(("eq", _app("psi", scaled), _app("psi", x)), env)
    if kind == 7:  # p on a psi-set member or on another element
        env = {"x": O.psi_member(rng.randint(0, 12)) if rng.random() < 0.7 else _element(rng)}
        return _eval_op(_app("p", x), env)
    if kind == 8:
        return _eval_op(("add", x, ("neg", ("div", _var("y"), 2))), {**env, "y": _element(rng)})
    return _eval_op(_app(("psi", "s", "int")[kind - 9], x), env)


SMALL_KINDS = range(12)


def _rand_term(rng: random.Random, depth: int) -> tuple:
    """Random parser-canonical term AST."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return _var(rng.choice("xyz"))
        if roll < 0.5:
            return ("lit", {})
        if roll < 0.6:
            return ("lit", None)
        return ("lit", {rng.randint(0, 12): rng.choice(_POSITIVE)})
    roll = rng.randrange(4)
    if roll == 0:
        return ("add", _rand_term(rng, depth - 1), _rand_term(rng, depth - 1))
    if roll == 1:
        return ("neg", _rand_term(rng, depth - 1))
    if roll == 2:
        return ("div", _rand_term(rng, depth - 1), rng.randint(1, 9))
    return _app(rng.choice(("psi", "s", "p", "int")), _rand_term(rng, depth - 1))


def _rand_formula(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.35:
        return (rng.choice(("eq", "lt")), _rand_term(rng, 2), _rand_term(rng, 2))
    roll = rng.randrange(3)
    if roll == 0:
        return ("not", _rand_formula(rng, depth - 1))
    return (("and", "or")[roll - 1], _rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def _sp(rng: random.Random) -> str:
    return rng.choice(("", " ", " ", "  "))


def _noisy(rng: random.Random, node: tuple, ctx: int = 1) -> str:
    """Text that parses to ``node`` but is not canonical: spacing, extra
    parentheses, unreduced or explicit coefficients, ``a + -b``."""
    kind = node[0]
    if kind in O.FORMULA_KINDS:
        if kind in ("eq", "lt"):
            op = "=" if kind == "eq" else "<"
            body = f"{_noisy(rng, node[1])}{_sp(rng)}{op}{_sp(rng)}{_noisy(rng, node[2])}"
            if rng.random() < 0.1:
                return f"({body})"
        elif kind == "not":
            body = "!" + _sp(rng) + _noisy(rng, node[1], 3)
        elif kind == "and":
            body = f"{_noisy(rng, node[1], 2)}{_sp(rng)}&{_sp(rng)}{_noisy(rng, node[2], 3)}"
        else:
            body = f"{_noisy(rng, node[1], 1)}{_sp(rng)}|{_sp(rng)}{_noisy(rng, node[2], 2)}"
        return f"({body})" if O.FORMULA_PREC[kind] < ctx else body
    if kind == "lit" and node[1]:
        ((i, q),) = node[1].items()
        k = rng.choice((1, 1, 2, 3))
        num, den = q.numerator * k, q.denominator * k
        body = f"{num}/{den}*e{i}" if den > 1 else f"{num}{_sp(rng)}*{_sp(rng)}e{i}"
        if num == 1 and den == 1 and rng.random() < 0.5:
            body = f"e{i}"
    elif kind in ("lit", "var"):
        body = O.canonical(node)
    elif kind == "app":
        body = f"{node[1]}{_sp(rng)}({_sp(rng)}{_noisy(rng, node[2], 1)}{_sp(rng)})"
    elif kind == "neg":
        body = "-" + _noisy(rng, node[1], 4)
    elif kind == "div":
        body = f"{_noisy(rng, node[1], 3)}{_sp(rng)}/{_sp(rng)}{node[2]}"
    elif node[2][0] == "neg" and rng.random() < 0.7:
        body = f"{_noisy(rng, node[1], 1)}{_sp(rng)}-{_sp(rng)}{_noisy(rng, node[2][1], 2)}"
    else:
        body = f"{_noisy(rng, node[1], 1)}{_sp(rng)}+{_sp(rng)}{_noisy(rng, node[2], 2)}"
    if O.TERM_PREC.get(kind, 4) < ctx or (kind != "neg" and rng.random() < 0.1):
        return f"({body})"
    return body


def _fmt_op(rng: random.Random) -> Op:
    while True:
        if rng.random() < 0.5:
            node, kind = _rand_formula(rng, 3), "formula"
        else:
            node, kind = _rand_term(rng, 4), "term"
        text = _noisy(rng, node)
        if not text.startswith("-"):  # a leading '-' would read as an option
            break
    want = {"kind": kind, "formatted": O.canonical(node), "ast": O.to_json(node)}
    return Op(["fmt", text, "--json"], _expect_json(want))


def _sum_op(rng: random.Random, terms: int) -> Op:
    """A long left-deep sum of positive single-term literals, in canonical text."""
    twelfths: Dict[int, int] = {}  # coefficients are multiples of 1/12
    chunks = []
    for n in range(terms):
        i, q = rng.randint(0, 40), rng.choice(_POSITIVE)
        minus = n > 0 and rng.random() < 0.4
        twelfths[i] = twelfths.get(i, 0) + (-12 if minus else 12) * q.numerator // q.denominator
        chunks.append(("" if n == 0 else " - " if minus else " + ") + (f"e{i}" if q == 1 else f"{q}*e{i}"))
    want = O.fmt({i: Fraction(t, 12) for i, t in twelfths.items() if t != 0})
    return Op(["eval", "".join(chunks)], _expect(0, want + "\n"))


def _chain_op(rng: random.Random, depth: int) -> Op:
    node = _var("x")
    for _ in range(depth):
        node = _app(rng.choice(("psi", "s", "s", "p", "int")), node)
    return _eval_op(node, {"x": _element(rng, nonzero=True)})


def _bang_op(rng: random.Random, depth: int) -> Op:
    k1, k2 = sorted(rng.sample(range(9), 2))
    node: tuple = ("lt", _app("s", _var("a")), _app("s", _var("b")))
    for _ in range(depth):
        node = ("not", node)
    return _eval_op(node, {"a": _prefixed(rng, k1), "b": _prefixed(rng, k2)})


class _Files:
    """Writes generator files into the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, elements: Sequence[Dict[int, Fraction]]) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"gens{self.count}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# generators\n" + "".join(O.fmt(x) + "\n" for x in elements))
        return path


def _scrambled(rng: random.Random, rows: List[Dict[int, Fraction]]) -> List[Dict[int, Fraction]]:
    """Generators with the same span as ``rows``: a unit upper-triangular
    recombination plus two redundant combinations, shuffled."""
    gens = []
    for j, row in enumerate(rows):
        g = dict(row)
        for later in rows[j + 1 :]:
            if rng.random() < 0.4:
                q = rng.choice((-3, -2, -1, 1, 2, 3))
                for i, c in later.items():
                    g[i] = g.get(i, 0) + q * c
        gens.append({i: c for i, c in g.items() if c != 0})
    for _ in range(2):
        i, j = rng.sample(range(len(gens)), 2)
        gens.append(O.add(_scale(gens[i], _coeff(rng)), _scale(gens[j], _coeff(rng))))
    rng.shuffle(gens)
    return gens


def _psi_span(levels: Sequence[int]):
    """Expected images of the span of psi-set members at ``levels``.

    The span is the set of vectors constant on the blocks
    [0..l1], [l1+1..l2], ... and zero past the last level.
    """
    starts = [0] + [l + 1 for l in levels[:-1]]
    blocks = list(zip(starts, levels))

    def member(w: Dict[int, Fraction]) -> bool:
        if w and max(w) > levels[-1]:
            return False
        return all(len({w.get(i, 0) for i in range(a, b + 1)}) == 1 for a, b in blocks)

    images = {
        "psi": (starts, {a: O.fmt(dict.fromkeys(range(a, b + 1), 1)) for a, b in blocks}),
        "s": ([0] + [l + 1 for l in levels], None),
        "p": ([l - 1 for l in levels if l >= 1], {l - 1: O.fmt(O.psi_member(l)) for l in levels if l >= 1}),
    }
    return images, member


def _unit_span(rng: random.Random, dim: int):
    """Rows e_i + t_i with tails past ``dim``; each tail has a private index,
    so the s-image is the full chain 0..dim and no psi-set member is inside."""
    rows = []
    for i in range(dim):
        row = {i: 1, dim + 1 + i: _coeff(rng)}
        for j in rng.sample(range(2 * dim + 1, 2 * dim + 6), rng.randint(0, 2)):
            row[j] = _coeff(rng)
        rows.append(row)

    def member(w: Dict[int, Fraction]) -> bool:
        combo: Dict[int, Fraction] = {}
        for i, row in enumerate(rows):
            combo = O.add(combo, _scale(row, w.get(i, Fraction(0))))
        return combo == w

    images = {
        "psi": (list(range(dim)), {i: O.fmt(row) for i, row in enumerate(rows)}),
        "s": (list(range(dim + 1)), None),
        "p": ([], {}),
    }
    return rows, images, member


def _image_check(function: str, levels: List[int], witnesses, member) -> Check:
    """Exact levels; exact witnesses where the RREF fixes them, and for
    ``s`` any witness in the span whose successor has the level."""

    def check(rc: Optional[int], out: str) -> Optional[str]:
        try:
            report = json.loads(out)
        except ValueError:
            return f"exit {rc}, stdout is not JSON: {out[:200]!r}"
        if rc != 0 or report.get("function") != function or report.get("levels") != levels:
            return f"exit {rc}, {function} levels {report.get('levels')}; want {levels}"
        got = report.get("witnesses", {})
        if witnesses is not None:
            want = {str(k): v for k, v in witnesses.items()}
            return None if got == want else f"{function} witnesses {got}; want {want}"
        if sorted(got, key=int) != [str(k) for k in levels]:
            return f"s witnesses for levels {sorted(got)}; want {levels}"
        for k in levels:
            w = O.parse(got[str(k)])
            if w is None or not member(w) or O.succ(w) != O.psi_member(k):
                return f"s witness {got[str(k)]!r} is not a level-{k} member of the span"
        return None

    return check


def _subspace_op(rng: random.Random, files: _Files, function: str, dim: int, psi_spanned: bool) -> Op:
    if psi_spanned:
        levels = sorted(rng.sample(range(SPAN_SUPPORT), dim))
        rows = [O.psi_member(l) for l in levels]
        images, member = _psi_span(levels)
    else:
        rows, images, member = _unit_span(rng, dim)
    path = files.write(_scrambled(rng, rows))
    want_levels, witnesses = images[function]
    return Op(["subspace", "--op", function, "--gens", path, "--json"], _image_check(function, want_levels, witnesses, member))


def _growth_op(rng: random.Random, files: _Files, base_dim: int) -> Op:
    """A psi-spanned base extended by psi-set members at new levels, with
    every bound met: added levels equal the new levels for psi and s."""
    levels = sorted(rng.sample(range(SPAN_SUPPORT), base_dim))
    fresh = sorted(rng.sample([l for l in range(SPAN_SUPPORT + 3) if l not in levels], rng.randint(1, 3)))
    base = [O.psi_member(l) for l in levels]
    extra = [
        O.add(O.psi_member(l), _scale(rng.choice(base), _coeff(rng)) if rng.random() < 0.5 else {})
        for l in fresh
    ]
    if rng.random() < 0.5:  # a generator already in the base, which m must not count
        extra.append(O.add(_scale(base[0], _coeff(rng)), _scale(base[-1], _coeff(rng))))
    gens, more = files.write(_scrambled(rng, base)), files.write(extra)
    m = len(fresh)
    combined = sorted(levels + fresh)
    image = {
        "psi": lambda ls: [0] + [l + 1 for l in ls[:-1]],
        "s": lambda ls: [0] + [l + 1 for l in ls],
        "p": lambda ls: [l - 1 for l in ls if l >= 1],
    }
    reports = []
    for function, bound in (("psi", m), ("s", m + 1), ("p", m)):
        old, new = image[function](levels), image[function](combined)
        reports.append(
            {
                "function": function,
                "old_levels": old,
                "new_levels": new,
                "added_levels": sorted(set(new) - set(old)),
                "new_generator_count": m,
                "bound": bound,
                "passed": True,
            }
        )
    argv = ["subspace", "--op", "growth", "--gens", gens, "--extend", more, "--json"]
    return Op(argv, _expect_json({"passed": True, "growth": reports}))


def _witness_op(rng: random.Random, count: int) -> Op:
    lead = rng.randint(0, 5)
    epsilon = {lead: rng.choice(_POSITIVE)}
    for i in rng.sample(range(lead + 1, lead + 7), rng.randint(0, 3)):
        epsilon[i] = _coeff(rng)
    level = lead + 1
    prefix, text = [], ""
    for index in range(level + 1, level + count + 1):
        text = f"{text} + e{index}" if text else f"e{index}"
        prefix.append(text)
    want = {
        "epsilon": O.fmt(epsilon),
        "alpha_level": level,
        "alpha": O.fmt(O.psi_member(level)),
        "bound": f"2*e{level + 1}",
        "prefix": prefix,
    }
    argv = ["witness", "--epsilon", O.fmt(epsilon), "--count", str(count), "--json"]
    return Op(argv, _expect_json(want))


def session(seed: int, workdir: str) -> List[List[Op]]:
    rng = random.Random(f"session:{seed}")
    files = _Files(workdir)
    small, sums = _spread(rng, SMALL_KINDS), _spread(rng, SUM_TERMS)
    chains, bangs = _spread(rng, CHAIN_DEPTH), _spread(rng, BANG_DEPTH)
    dims, bases = _spread(rng, SPAN_DIM), _spread(rng, GROWTH_BASE)
    spans, counts = _spread(rng, (True, False)), _spread(rng, WITNESS_COUNT)
    make = {
        "small": lambda: _small_eval(rng, next(small)),
        "fmt": lambda: _fmt_op(rng),
        "sum": lambda: _sum_op(rng, next(sums)),
        "chain": lambda: _chain_op(rng, next(chains)),
        "bang": lambda: _bang_op(rng, next(bangs)),
        "sub_psi": lambda: _subspace_op(rng, files, "psi", next(dims), next(spans)),
        "sub_s": lambda: _subspace_op(rng, files, "s", next(dims), next(spans)),
        "sub_p": lambda: _subspace_op(rng, files, "p", next(dims), next(spans)),
        "growth": lambda: _growth_op(rng, files, next(bases)),
        "witness": lambda: _witness_op(rng, next(counts)),
    }
    blocks = []
    for _ in range(SESSION_BLOCKS):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        blocks.append([make[kind]() for kind in kinds])
    return blocks


# ROADMAP item 5 inputs that crash `logcouple eval` today with a RecursionError
# escaping cli.main.  They are probed once per session run, outside the timed
# loop and outside the attempted/failed counts.
CRASH_INPUTS = (
    ["eval", "psi(" * 3000 + "x" + ")" * 3000, "--let", "x=e1"],
    ["eval", "!" * 3000 + "e0 = e0"],
    ["eval", " + ".join(["e0"] * 5000)],
)

WORKLOADS = {"laws": laws, "growth": growth, "session": session}
