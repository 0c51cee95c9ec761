"""Quantifier-free term and formula language over the asymptotic couple.

Terms:    variables, element literals (``0``, ``inf``, ``q*e<k>``), ``+``,
          binary and unary ``-``, division by a positive integer ``t / n``
          (one operator per n, exactness preserved), and the unary maps
          ``psi(t)``, ``s(t)``, ``p(t)``, ``int(t)``.
Formulas: ``t1 = t2``, ``t1 < t2``, ``!``, ``&``, ``|`` with precedence
          ``!`` > ``&`` > ``|``; parentheses group both levels.
``parse_any`` reads the formula grammar in one pass, and a bare term only
as the whole input; a '(' the lexer marks opens a grouped formula, any
other '(' a term.  ``parse_element`` reads element text, the literal sums
``0``, ``inf`` and ``[-][q*]e<k> (+|- [q*]e<k>)*``, from the same tokens.
Both report an error at the first token that their one reading rejects.

The lexer is one compiled regex: each match skips leading whitespace and
fills one numbered group, and ``_lex`` dispatches on that number.  A token
is a plain tuple ``(kind, text, pos, mark, digits)``, read by index.  When
``= < ! & |`` shows a '(' to open a grouped formula, ``_lex`` replaces its
entry with one whose mark is 1.  Digits stay text, so a number too long
for ``int`` is an error only where the parser reaches it, after any error
to its left.  The token list ends in ``_EOF_PADDING`` eof tokens, so the
parser looks ahead by plain indexing.

``int`` is a flagged extension: accepted by default, rejected when the
parser runs in strict mode.  Quantifier tokens are recognized only to be
rejected with a pointed message; the language is quantifier-free.
Parentheses, including those of function calls, nest at most
``MAX_NESTING`` deep; deeper input is a ParseError.

The AST nodes are plain ``__slots__`` classes on one base, ``_Node``, so
``lang`` loads only ``gamma`` and the standard modules it names.

``evaluate`` (value or truth), ``format_any`` (canonical text) and
``to_json`` (nested dicts) take a term or a formula alike.  They share one
walk that keeps its own stack, so a long sum or a long run of ``!`` is no
deeper for them than a short one.  ``evaluate`` walks the left spine of a
sum ``t0 + t1 + ... + tn`` with a loop, evaluates the operands from left
to right, and adds each value into one ``gamma.Sum`` as the walk returns it.

Grammar (terms):

    term     := product (('+' | '-') product)*        left assoc
    product  := unary ('/' nat)*                      left assoc
    unary    := '-'* atom
    atom     := literal | var | func '(' term ')' | '(' term ')'
    literal  := '0' | 'inf' | (rational '*')? 'e' digits

Binary ``a - b`` is sugar for ``a + (-b)``: it parses to Add(a, Neg(b))
and the formatter prints that shape back as subtraction.  The formatter
and parser are exact inverses on parser-canonical trees (the parser only
ever produces literals that are 0, inf, or a single positive term;
programmatic multi-term literals format value-correctly but reparse as
sums).
"""

from __future__ import annotations

import re
from types import GeneratorType
from typing import Callable, Dict, FrozenSet, Generator, List, Mapping, NoReturn, Optional, Tuple, Union

from . import gamma
from .gamma import INF, ZERO, ExtendedElement

FUNCTIONS = ("psi", "s", "p", "int")
_QUANTIFIERS = ("forall", "exists")

# Deepest nesting of parentheses (grouping or function calls) the parser
# accepts.  The parser recurses only into parentheses, a few frames per
# level, so the cap keeps it far below Python's recursion limit.
MAX_NESTING = 128


# --- AST --------------------------------------------------------------------

_set = object.__setattr__  # how each __init__ sets its slots past _Node.__setattr__


class _Node:
    """An AST node: immutable, and equal to a node of its own class with equal
    fields.  A class lists its fields in ``__slots__`` and sets them in its
    own ``__init__``; ``==``, ``hash`` and ``repr`` read them in that order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild a node through __init__
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


class Literal(_Node):
    __slots__ = ("value",)

    def __init__(self, value: ExtendedElement) -> None:
        _set(self, "value", value)


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Add(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: TermNode, right: TermNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: TermNode) -> None:
        _set(self, "operand", operand)


class Div(_Node):
    __slots__ = ("operand", "divisor")

    def __init__(self, operand: TermNode, divisor: int) -> None:
        if type(divisor) is not int or divisor < 1:
            raise ValueError(f"divisor must be a positive integer, got {divisor!r}")
        _set(self, "operand", operand)
        _set(self, "divisor", divisor)


class Apply(_Node):
    __slots__ = ("func", "operand")

    def __init__(self, func: str, operand: TermNode) -> None:
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        _set(self, "func", func)
        _set(self, "operand", operand)


TermNode = Union[Literal, Var, Add, Neg, Div, Apply]


class Eq(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: TermNode, right: TermNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Lt(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: TermNode, right: TermNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Not(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: FormulaNode) -> None:
        _set(self, "operand", operand)


class And(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: FormulaNode, right: FormulaNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Or(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: FormulaNode, right: FormulaNode) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


FormulaNode = Union[Eq, Lt, Not, And, Or]
Node = Union[TermNode, FormulaNode]


class ParseError(ValueError):
    """Syntax error with character position and the tokens expected there."""

    def __init__(self, message: str, position: int, expected: FrozenSet[str] = frozenset()):
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class ElementError(ValueError):
    """Malformed element text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """Evaluation failure, e.g. an unbound variable."""


# --- lexer ------------------------------------------------------------------

# One match per token: leading whitespace, then one numbered group.  The
# empty ``\Z`` alternative matches only at the end, with no group, so
# trailing whitespace ends the scan in one match instead of one failed
# match per character.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        ([()+\-*/!&|=<])                    # 1 symbol
      | ([0-9]+)                            # 2 number
      | (e([0-9]+))(?![A-Za-z0-9_])         # 3 basis vector, 4 its index digits
      | ([A-Za-z_][A-Za-z0-9_]*)            # 5 name
      | (\S)                                # 6 any other character
      | \Z
    )""",
    re.VERBOSE,
)
_SYMBOL, _NUMBER, _BASIS, _NAME = 1, 2, 3, 5

_NAME_KINDS = {"inf": "inf", **dict.fromkeys(FUNCTIONS, "func"), **dict.fromkeys(_QUANTIFIERS, "quant")}

# eof tokens at the end of every token list.  The parser never moves past
# the first one, and no lookahead reaches more than two tokens beyond it,
# so it indexes the list without a bounds check.
_EOF_PADDING = 3

# kind: number basis var func inf quant char deep ( ) + - * / ! & | = < eof
_Tok = Tuple[str, str, int, int, str]  # (kind, text, pos, mark, digits)


def _lex(text: str) -> List[_Tok]:
    """``_Tok`` tuples of ``text``, then ``_EOF_PADDING`` eof tokens; never raises.

    A character outside the grammar becomes a ``char`` token and a '(' past
    ``MAX_NESTING`` a ``deep`` token.  No rule consumes either, so the
    parser reports the leftmost error when it reaches one.  Digits stay
    text, so even a number too long for ``int`` cannot raise here.

    A '(' gets mark 1, the mark of a grouped formula, when ``= < ! & |``
    occurs at its own depth or its first token opens a marked group: its
    list entry is replaced by the marked tuple.  A parenthesized term never
    has either; a parenthesized formula always does.
    """
    tokens: List[_Tok] = []
    append = tokens.append
    opened: List[int] = []  # indices of the unclosed '(' tokens, innermost last
    for m in _TOKEN_RE.finditer(text):
        which = m.lastindex
        if which == _SYMBOL:
            lexeme = m[1]
            if lexeme == "(":
                opened.append(len(tokens))
            elif lexeme == ")" and opened:
                group = opened.pop()
                if tokens[group][3] and opened and opened[-1] == group - 1:
                    tokens[group - 1] = tokens[group - 1][:3] + (1, "")
            elif lexeme in "=<!&|" and opened:
                tokens[opened[-1]] = tokens[opened[-1]][:3] + (1, "")
            append(("deep" if len(opened) > MAX_NESTING else lexeme, lexeme, m.end() - 1, 0, ""))
        elif which == _NUMBER:
            lexeme = m[2]
            append(("number", lexeme, m.start(2), 0, lexeme))
        elif which == _BASIS:
            append(("basis", m[3], m.start(3), 0, m[4]))
        elif which == _NAME:
            lexeme = m[5]
            append((_NAME_KINDS.get(lexeme, "var"), lexeme, m.start(5), 0, ""))
        elif which is None:
            break
        else:
            append(("char", m[6], m.end() - 1, 0, ""))
    tokens += [("eof", "", len(text), 0, "")] * _EOF_PADDING
    return tokens


# --- parser -----------------------------------------------------------------

_TERM_START = frozenset({"'0'", "'inf'", "'e<k>'", "coefficient", "variable", "function", "'('", "'-'"})


class _Parser:
    def __init__(self, tokens: List[_Tok], strict_llog: bool):
        self.tokens = tokens
        self.i = 0
        self.strict_llog = strict_llog

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def take(self) -> _Tok:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, expected: FrozenSet[str]) -> _Tok:
        tok = self.peek()
        if tok[0] != kind:
            self.fail(tok, expected)
        return self.take()

    def fail(self, tok: _Tok, expected: FrozenSet[str]) -> NoReturn:
        if tok[0] == "quant":
            raise ParseError(
                f"quantifier {tok[1]!r} is not supported: only the quantifier-free "
                "fragment (=, <, !, &, |) is implemented",
                tok[2],
            )
        if tok[0] == "char":
            raise ParseError(f"unexpected character {tok[1]!r}", tok[2])
        if tok[0] == "deep":
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
        what = "end of input" if tok[0] == "eof" else f"{tok[1]!r}"
        raise ParseError(f"unexpected {what}", tok[2], expected)

    # terms

    def term(self) -> TermNode:
        node = self.product()
        while (op := self.tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            rhs = self.product()
            node = Add(node, Neg(rhs)) if op == "-" else Add(node, rhs)
        return node

    def product(self) -> TermNode:
        node = self.unary()
        while self.tokens[self.i][0] == "/":
            self.i += 1
            tok = self.expect("number", frozenset({"positive integer divisor"}))
            divisor = int(tok[4])
            if divisor < 1:
                raise ParseError("divisor must be a positive integer", tok[2])
            node = Div(node, divisor)
        return node

    def unary(self) -> TermNode:
        signs = self.count_prefix("-")
        node = self.atom()
        for _ in range(signs):
            node = Neg(node)
        return node

    def count_prefix(self, kind: str) -> int:
        start = i = self.i
        while self.tokens[i][0] == kind:
            i += 1
        self.i = i
        return i - start

    def atom(self) -> TermNode:
        tok = self.tokens[self.i]
        kind = tok[0]
        if kind == "number":
            return self.literal_from_number()
        if kind == "basis":
            self.i += 1
            return Literal(gamma.unit(int(tok[4])))
        if kind == "inf":
            self.i += 1
            return Literal(INF)
        if kind == "var":
            self.i += 1
            return Var(tok[1])
        if kind == "func":
            if tok[1] == "int" and self.strict_llog:
                raise ParseError(
                    "'int' is a flagged extension and is rejected in strict mode", tok[2]
                )
            self.i += 1
            self.expect("(", frozenset({"'('"}))
            inner = self.term()
            self.expect(")", frozenset({"')'"}))
            return Apply(tok[1], inner)
        if kind == "(":
            self.i += 1
            inner = self.term()
            self.expect(")", frozenset({"')'"}))
            return inner
        self.fail(tok, _TERM_START)

    def literal_from_number(self) -> TermNode:
        """``n[/d]*e<k>``, or a bare ``0``, read by index from the number token."""
        tokens, i = self.tokens, self.i
        num, den = int(tokens[i][4]), 1
        if tokens[i + 1][0] == "/" and tokens[i + 2][0] == "number" and tokens[i + 3][0] == "*":
            den_tok = tokens[i + 2]
            den = int(den_tok[4])
            if den == 0:
                raise ParseError("zero denominator in coefficient", den_tok[2])
            i += 2
        if tokens[i + 1][0] != "*":
            self.i = i + 1
            if num == 0:
                return Literal(ZERO)
            self.fail(tokens[i + 1], frozenset({"'*'"}))
        basis = tokens[i + 2]
        if basis[0] != "basis":
            self.fail(basis, frozenset({"'e<k>'"}))
        self.i = i + 3
        index = int(basis[4])
        return Literal(gamma._from_terms(((index, num, den),)) if num else ZERO)

    # element text: 'inf', '0', or a sum of signed [q*]e<k> literals

    def element(self) -> ExtendedElement:
        tokens, i = self.tokens, self.i + 1  # a cursor past the token in kind, text, ...
        kind, text, pos, _, digits = tokens[i - 1]
        if kind == "eof":
            raise ElementError("empty element text", pos)
        if kind == "inf":
            if tokens[i][0] != "eof":
                raise ElementError("trailing input after 'inf'", tokens[i][2])
            return INF
        if text == "0" and tokens[i][0] == "eof":
            return ZERO
        if kind == "+":
            raise ElementError("unexpected leading '+'", pos)
        acc = gamma.Sum()
        while True:
            num = -1 if kind == "-" else 1
            if kind in ("+", "-"):
                kind, text, pos, _, digits = tokens[i]
                i += 1
            den = 1
            if kind == "number":
                num *= int(digits)
                if tokens[i][0] == "/":
                    kind, text, pos, _, digits = tokens[i + 1]
                    i += 2
                    if kind != "number":
                        raise ElementError("expected denominator digits", pos)
                    den = int(digits)
                    if den == 0:
                        raise ElementError("zero denominator", pos + len(text) - 1)
                if tokens[i][0] != "*":
                    raise ElementError("expected '*' after coefficient", tokens[i][2])
                kind, text, pos, _, digits = tokens[i + 1]
                i += 2
            if kind != "basis":
                if text.startswith("e"):  # a name such as 'e', 'exists' or 'e1e2'
                    run = len(text) - 1 - len(text[1:].lstrip("0123456789"))
                    if run:
                        raise ElementError("expected '+' or '-' between terms", pos + 1 + run)
                    raise ElementError("expected basis index digits", pos + 1)
                raise ElementError("expected basis vector 'e<index>'", pos)
            acc.add_terms(((int(digits), num),), den)
            kind, text, pos, _, digits = tokens[i]
            i += 1
            if kind == "eof":
                return acc.total()
            if kind not in ("+", "-"):
                raise ElementError("expected '+' or '-' between terms", pos)

    # formulas

    def formula(self) -> Node:
        node = self.conjunction()
        while self.tokens[self.i][0] == "|":
            self.i += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Node:
        node = self.negation()
        while self.tokens[self.i][0] == "&":
            self.i += 1
            node = And(node, self.negation())
        return node

    def negation(self) -> Node:
        nots = self.count_prefix("!")
        node = self.formula_atom()
        for _ in range(nots):
            node = Not(node)
        return node

    def formula_atom(self) -> Node:
        if self.peek()[0] == "(" and self.peek()[3]:  # a grouped formula, see _lex
            self.i += 1
            inner = self.formula()
            self.expect(")", frozenset({"')'"}))
            return inner
        return self.comparison()

    def comparison(self) -> Node:
        start = self.i
        left = self.term()
        tok = self.tokens[self.i]
        if tok[0] == "=":
            self.i += 1
            return Eq(left, self.term())
        if tok[0] == "<":
            self.i += 1
            return Lt(left, self.term())
        if start == 0 and tok[0] == "eof":
            return left  # the whole input is one term
        self.fail(tok, frozenset({"'='", "'<'"}))

    def done(self) -> None:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.fail(tok, frozenset({"end of input"}))


def parse_any(text: str, strict_llog: bool = False) -> Node:
    """Parse a formula, or a term when the whole text is one term."""
    parser = _Parser(_lex(text), strict_llog)
    node = parser.formula()
    parser.done()
    return node


def parse_element(text: str) -> ExtendedElement:
    """Read element text with the term language's lexer; raises ElementError."""
    return _Parser(_lex(text), False).element()


# --- one walk for every job ---------------------------------------------------
#
# Evaluation, formatting and the JSON dump are tables from node type to a
# step.  A leaf step is a plain function of (node, arg) that returns the
# node's result.  An inner step is a generator: it yields (child, arg)
# pairs, is sent each child's result, and returns its own; a step that
# returns before yielding a child never visits it.  ``_walk`` keeps the
# unfinished steps on a list, so no tree is too deep for it.


def _walk(steps: Mapping[type, Callable], node: Node, arg: object) -> object:
    def root() -> Generator:
        return (yield node, arg)

    stack = [root()]
    result = None
    while stack:
        try:
            child, child_arg = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
            continue
        step = steps.get(type(child))
        if step is None:
            raise TypeError(f"not a node of the language: {child!r}")
        result = step(child, child_arg)
        if isinstance(result, GeneratorType):
            stack.append(result)
            result = None
    return result


# Steps that walk the operand, resp. both sides, and hand the results to
# ``combine(node, operand)``, resp. ``combine(left, right)``.


def _unary(combine: Callable) -> Callable:
    def step(node: Node, arg: object) -> Generator:
        return combine(node, (yield node.operand, arg))

    return step


def _binary(combine: Callable) -> Callable:
    def step(node: Node, arg: object) -> Generator:
        return combine((yield node.left, arg), (yield node.right, arg))

    return step


# --- evaluation ---------------------------------------------------------------

_FUNC_EVAL = {
    "psi": gamma.psi,
    "s": gamma.successor,
    "p": gamma.predecessor,
    "int": gamma.integrate,
}

Env = Mapping[str, ExtendedElement]


def _lookup(node: Var, env: Env) -> ExtendedElement:
    try:
        return env[node.name]
    except KeyError:
        raise EvalError(f"unbound variable {node.name!r}") from None


def _sum(node: Add, env: Env) -> Generator:
    """A chain ``t0 + t1 + ... + tn``: walk its left spine with a loop, the
    operands from left to right, and add each value as the walk returns it."""
    rights = []
    while type(node) is Add:
        rights.append(node.right)
        node = node.left
    acc = gamma.Sum()
    for operand in (node, *reversed(rights)):
        acc.add((yield operand, env))
    return acc.total()


def _and(node: And, env: Env) -> Generator:
    return (yield node.left, env) and (yield node.right, env)


def _or(node: Or, env: Env) -> Generator:
    return (yield node.left, env) or (yield node.right, env)


_EVAL = {
    Literal: lambda node, env: node.value,
    Var: _lookup,
    Add: _sum,
    Neg: _unary(lambda node, a: -a),
    # Div.__init__ has already rejected a divisor below 1.
    Div: _unary(lambda node, a: a / node.divisor),
    Apply: _unary(lambda node, a: _FUNC_EVAL[node.func](a)),
    Eq: _binary(lambda a, b: a == b),
    Lt: _binary(lambda a, b: a < b),
    Not: _unary(lambda node, a: not a),
    And: _and,
    Or: _or,
}


def evaluate(node: Node, env: Optional[Env] = None) -> Union[ExtendedElement, bool]:
    """The element a term denotes, or the truth of a formula, under ``env``.

    ``&`` and ``|`` evaluate their right side only when the left side does
    not decide the result, so an unbound variable there is no error.
    """
    return _walk(_EVAL, node, env or {})


# --- formatting ---------------------------------------------------------------
#
# A formatted subtree is (precedence, text); the parent puts parentheses
# around text whose precedence is below what its position needs.  Terms:
# Add = 1, Neg = Div = 3, atoms = 4; formulas: | = 1, & = 2, ! = 3,
# comparisons = 4.  Multi-term and negative literals are not parser atoms;
# they take the precedence of the sum, resp. negation, they reparse as.

_P_SUM, _P_OPERAND, _P_PRODUCT, _P_ATOM = 1, 2, 3, 4
_F_OR, _F_AND, _F_NOT, _F_CMP = 1, 2, 3, 4


def _at(formatted: Tuple[int, str], ctx: int) -> str:
    prec, text = formatted
    return f"({text})" if prec < ctx else text


def _fmt_literal(node: Literal, _: object) -> Tuple[int, str]:
    text = gamma.format_element(node.value)
    return (_P_SUM if " " in text else _P_PRODUCT if text.startswith("-") else _P_ATOM), text


def _fmt_add(node: Add, _: object) -> Generator:
    left = _at((yield node.left, None), _P_SUM)
    minus = isinstance(node.right, Neg)
    right = _at((yield node.right.operand if minus else node.right, None), _P_OPERAND)
    return _P_SUM, f"{left} {'-' if minus else '+'} {right}"


def _infix(op: str, prec: int, left: int, right: int) -> Callable:
    return _binary(lambda a, b: (prec, f"{_at(a, left)} {op} {_at(b, right)}"))


_FORMAT = {
    Literal: _fmt_literal,
    Var: lambda node, _: (_P_ATOM, node.name),
    Add: _fmt_add,
    Neg: _unary(lambda node, a: (_P_PRODUCT, "-" + _at(a, _P_ATOM))),
    Div: _unary(lambda node, a: (_P_PRODUCT, f"{_at(a, _P_PRODUCT)} / {node.divisor}")),
    Apply: _unary(lambda node, a: (_P_ATOM, f"{node.func}({a[1]})")),
    Eq: _infix("=", _F_CMP, _P_SUM, _P_SUM),
    Lt: _infix("<", _F_CMP, _P_SUM, _P_SUM),
    Not: _unary(lambda node, a: (_F_NOT, "!" + _at(a, _F_NOT))),
    And: _infix("&", _F_AND, _F_AND, _F_NOT),
    Or: _infix("|", _F_OR, _F_OR, _F_AND),
}


def format_any(node: Node) -> str:
    """Canonical text of a term or formula; the parser reads it back to ``node``."""
    return _walk(_FORMAT, node, None)[1]


# --- JSON dump ----------------------------------------------------------------

_JSON_NAMES = {kind: kind.__name__.lower() for kind in _EVAL} | {Neg: "negate", Div: "divide"}


def _json_step(node: Node, _: object) -> Generator:
    out: Dict[str, object] = {"node": _JSON_NAMES[type(node)]}
    for name in node.__slots__:
        value = getattr(node, name)
        is_node = type(value) in _JSON_NAMES
        out[name] = (yield value, None) if is_node else gamma.jsonable(value)
    return out


_JSON = dict.fromkeys(_JSON_NAMES, _json_step)


def to_json(node: Node) -> Dict[str, object]:
    """The tree as nested dicts: ``"node"`` names the kind, then the fields in order."""
    return _walk(_JSON, node, None)
