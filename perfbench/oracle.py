"""Reference semantics used to check logcouple's answers without its code.

Elements are dicts ``{index: Fraction}`` holding no zero coefficients;
``None`` stands for ``inf``.  Every function here follows the behaviour
documented in the README and in the package docstrings (element text
format, ``psi``, ``s``, ``p``, ``int``, the term/formula grammar and its
JSON dump), written independently of the package's implementation.

ASTs are tuples: ``("lit", element)``, ``("var", name)``,
``("add", l, r)``, ``("neg", t)``, ``("div", t, n)``, ``("app", f, t)``,
``("eq", l, r)``, ``("lt", l, r)``, ``("not", f)``, ``("and", l, r)``,
``("or", l, r)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional

Element = Optional[Dict[int, Fraction]]


# --- elements -------------------------------------------------------------------


def psi_member(level: int) -> Dict[int, Fraction]:
    """``e0 + ... + e<level>`` (int coefficients compare equal to Fractions)."""
    return dict.fromkeys(range(level + 1), 1)


def fmt(x: Element) -> str:
    """Canonical element text: increasing index, no zero terms, ``1*`` elided."""
    if x is None:
        return "inf"
    if not x:
        return "0"
    chunks = []
    for pos, i in enumerate(sorted(x)):
        q = x[i]
        mag = abs(q)
        body = f"e{i}" if mag == 1 else f"{mag}*e{i}"
        if pos == 0:
            chunks.append(body if q > 0 else "-" + body)
        else:
            chunks.append((" + " if q > 0 else " - ") + body)
    return "".join(chunks)


_TERM_RE = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?\*)?e(\d+)")


def parse(text: str) -> Element:
    """Parse element text (any term order, duplicates summed)."""
    s = text.replace(" ", "")
    if s == "inf":
        return None
    if s == "0":
        return {}
    out: Dict[int, Fraction] = {}
    pos = 0
    for m in _TERM_RE.finditer(s):
        if m.start() != pos or (pos > 0 and not m.group(1)):
            raise ValueError(f"not element text: {text!r}")
        q = Fraction(int(m.group(2) or 1), int(m.group(3) or 1))
        i = int(m.group(4))
        out[i] = out.get(i, 0) + (-q if m.group(1) == "-" else q)
        pos = m.end()
    if pos != len(s) or not s:
        raise ValueError(f"not element text: {text!r}")
    return {i: q for i, q in out.items() if q != 0}


def add(x: Element, y: Element) -> Element:
    if x is None or y is None:
        return None
    out = dict(x)
    for i, q in y.items():
        out[i] = out.get(i, 0) + q
    return {i: q for i, q in out.items() if q != 0}


def neg(x: Element) -> Element:
    return None if x is None else {i: -q for i, q in x.items()}


def div(x: Element, n: int) -> Element:
    return None if x is None else {i: q / n for i, q in x.items()}


def compare(x: Element, y: Element) -> int:
    """-1, 0, 1 in the lexicographic order with ``inf`` on top."""
    if x is None or y is None:
        return (x is None) - (y is None)
    d = add(x, neg(y))
    if not d:
        return 0
    return 1 if d[min(d)] > 0 else -1


def first_non_one(x: Dict[int, Fraction]) -> int:
    n = 0
    while x.get(n) == 1:
        n += 1
    return n


def level(x: Element) -> Optional[int]:
    """n when x is ``e0 + ... + en``, else None."""
    if not x:
        return None
    n = max(x)
    return n if x == psi_member(n) else None


def psi(x: Element) -> Element:
    return None if not x else psi_member(min(x))


def succ(x: Element) -> Element:
    return None if x is None else psi_member(first_non_one(x))


def pred(x: Element) -> Element:
    n = level(x)
    return psi_member(n - 1) if n is not None and n >= 1 else None


def integ(x: Element) -> Element:
    if x is None:
        return None
    n = first_non_one(x)
    out = {n: x.get(n, Fraction(0)) - 1}
    out.update((i, q) for i, q in x.items() if i > n)
    return out


FUNCS = {"psi": psi, "s": succ, "p": pred, "int": integ}


# --- terms and formulas ---------------------------------------------------------


def evaluate(node: tuple, env: Dict[str, Element]) -> object:
    """Value of a term (an element) or a formula (a bool)."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "add":
        return add(evaluate(node[1], env), evaluate(node[2], env))
    if kind == "neg":
        return neg(evaluate(node[1], env))
    if kind == "div":
        return div(evaluate(node[1], env), node[2])
    if kind == "app":
        return FUNCS[node[1]](evaluate(node[2], env))
    if kind == "eq":
        return compare(evaluate(node[1], env), evaluate(node[2], env)) == 0
    if kind == "lt":
        return compare(evaluate(node[1], env), evaluate(node[2], env)) < 0
    if kind == "not":
        return not evaluate(node[1], env)
    if kind == "and":
        return evaluate(node[1], env) and evaluate(node[2], env)
    return evaluate(node[1], env) or evaluate(node[2], env)


FORMULA_KINDS = ("eq", "lt", "not", "and", "or")

# Term precedence: sum 1, right operand of a sum 2, negation and division 3,
# atoms 4.  Formula precedence: | 1, & 2, ! 3, comparisons 4.
TERM_PREC = {"add": 1, "neg": 3, "div": 3}
FORMULA_PREC = {"or": 1, "and": 2, "not": 3, "eq": 4, "lt": 4}


def canonical(node: tuple, ctx: int = 1) -> str:
    """The formatter's output for a parser-canonical AST."""
    kind = node[0]
    if kind in FORMULA_KINDS:
        if kind in ("eq", "lt"):
            op = "=" if kind == "eq" else "<"
            body = f"{canonical(node[1])} {op} {canonical(node[2])}"
        elif kind == "not":
            body = "!" + canonical(node[1], 3)
        elif kind == "and":
            body = f"{canonical(node[1], 2)} & {canonical(node[2], 3)}"
        else:
            body = f"{canonical(node[1], 1)} | {canonical(node[2], 2)}"
        return f"({body})" if FORMULA_PREC[kind] < ctx else body
    if kind == "lit":
        body = fmt(node[1])
    elif kind == "var":
        body = node[1]
    elif kind == "app":
        body = f"{node[1]}({canonical(node[2], 1)})"
    elif kind == "neg":
        body = "-" + canonical(node[1], 4)
    elif kind == "div":
        body = f"{canonical(node[1], 3)} / {node[2]}"
    elif node[2][0] == "neg":
        body = f"{canonical(node[1], 1)} - {canonical(node[2][1], 2)}"
    else:
        body = f"{canonical(node[1], 1)} + {canonical(node[2], 2)}"
    return f"({body})" if TERM_PREC.get(kind, 4) < ctx else body


def to_json(node: tuple) -> dict:
    """The documented JSON dump of an AST."""
    kind = node[0]
    if kind == "lit":
        return {"node": "literal", "value": fmt(node[1])}
    if kind == "var":
        return {"node": "var", "name": node[1]}
    if kind in ("neg", "not"):
        return {"node": "negate" if kind == "neg" else "not", "operand": to_json(node[1])}
    if kind == "div":
        return {"node": "divide", "operand": to_json(node[1]), "divisor": node[2]}
    if kind == "app":
        return {"node": "apply", "func": node[1], "operand": to_json(node[2])}
    return {"node": kind, "left": to_json(node[1]), "right": to_json(node[2])}
