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
``0``, ``inf`` and ``[-][q*]e<k> (+|- [q*]e<k>)*``, from the same tokens
with a cursor of its own, not a parser object.  Both report an error at
the first token that their one reading rejects.  ``is_variable`` says
whether a name is one variable token, so no other module reads tokens.

The lexer is one compiled regex: each match skips leading whitespace and
fills one numbered group, and ``_lex`` dispatches on that number.  Tokens
are plain tuples read by index; the ``_Tok`` comment gives their fields.
A literal ``[n[/d]*]e<k>`` is one ``literal`` token, ``e<k>`` alone too,
so every literal reaches its element through one reader.  A zero d ends
no literal: ``1/0*e1`` stays number tokens, which each reader reports at
the zero.  After a '/' digits are a divisor, so there a literal takes no
coefficient: ``x / 2*e1`` fails at the '*', ``x / e1`` at the ``e1``.  A
literal with its sign, ``(+|-) [n[/d]*]e<k>``, is one ``signed`` token at
the sign, which the parser adds as a term with no token for the sign.  It
is lexed only where a binary sign can stand, after a token that ends in a
letter, digit, '_' or ')', and not when a '/' follows, as the division
binds tighter than the sign (``e1 + e2 / 3`` is ``e1 + (e2 / 3)``).  When
``= < ! & |`` shows a '(' to open a grouped formula, ``_lex`` replaces its
entry with a marked one.  Digits stay text, so a number too long for
``int`` is an error only where the parser reaches it, after any error to
its left.  The token list ends in ``_EOF_PADDING`` eof tokens, so the
parser reads ``self.tokens[self.i]`` and looks ahead by plain indexing.

``int`` is a flagged extension: accepted by default, rejected when the
parser runs in strict mode.  Quantifier tokens are recognized only to be
rejected with a pointed message; the language is quantifier-free.
Parentheses, including those of function calls, nest at most
``MAX_NESTING`` deep; deeper input is a ParseError.

The AST nodes are ``gamma.Record``s: each class lists its fields in
``__slots__`` and is built from them positionally; ``Div`` and ``Apply``
check theirs.  ``lang`` loads only ``gamma`` and the standard modules it
names.

``evaluate`` (value or truth) and ``format_any`` (canonical text) take a
term or a formula alike.  They share one walk that keeps its own stack, so
a long sum or a long run of ``!`` is no deeper for them than a short one.
``NODE_NAMES`` names each node class; ``cli`` writes a node as a JSON
object of that name under ``"node"``, then its fields.  ``evaluate`` walks
the left spine of a sum ``t0 + ... + tn`` with a loop, evaluates the
operands from left to right, and adds each value into one ``gamma.Sum`` as
the walk returns it, a literal or negated literal operand with no walk
step.

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
from typing import Callable, FrozenSet, Generator, List, Mapping, NoReturn, Optional, Tuple, Union

from . import gamma
from .gamma import INF, ZERO, ExtendedElement, Record

FUNCTIONS = ("psi", "s", "p", "int")
_QUANTIFIERS = ("forall", "exists")

# Deepest nesting of parentheses (grouping or function calls) the parser
# accepts.  The parser recurses only into parentheses, a few frames per
# level, so the cap keeps it far below Python's recursion limit.
MAX_NESTING = 128


# --- AST --------------------------------------------------------------------


class Literal(Record):
    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)


class Add(Record):
    __slots__ = ("left", "right")


class Neg(Record):
    __slots__ = ("operand",)


class Div(Record):
    __slots__ = ("operand", "divisor")

    def __init__(self, operand: TermNode, divisor: int) -> None:
        if type(divisor) is not int or divisor < 1:
            raise ValueError(f"divisor must be a positive integer, got {divisor!r}")
        self._set_fields(operand, divisor)


class Apply(Record):
    __slots__ = ("func", "operand")

    def __init__(self, func: str, operand: TermNode) -> None:
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        self._set_fields(func, operand)


TermNode = Union[Literal, Var, Add, Neg, Div, Apply]


class Eq(Record):
    __slots__ = ("left", "right")


class Lt(Record):
    __slots__ = ("left", "right")


class Not(Record):
    __slots__ = ("operand",)


class And(Record):
    __slots__ = ("left", "right")


class Or(Record):
    __slots__ = ("left", "right")


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
# lookbehinds of a signed literal and of a literal's coefficient see the last
# character of the token before (see the module docstring).  A literal's
# lookahead takes its text, and every other token fails it there at once.
# The empty ``\Z`` alternative matches only at the end, with no group, so
# trailing whitespace ends the scan in one match instead of one failed match
# per character.
_TOKEN_RE = re.compile(
    r"""(?<=[0-9A-Za-z_)])\s*([+\-])\s*(?:([0-9]+)\s*(?:/\s*(0*[1-9][0-9]*)\s*)?\*\s*)?e([0-9]+)(?![A-Za-z0-9_])(?!\s*/)
                                            # 1 sign, 2 n, 3 d, 4 k of a signed literal
      | (?=\s*([0-9]+|e[0-9]+))(?:(?<!/)\s*([0-9]+)\s*(?:/\s*(0*[1-9][0-9]*)\s*)?\*)?\s*e([0-9]+)(?![A-Za-z0-9_])
                                            # 5 text (n, or e<k> without n), 6 n, 7 d, 8 k of a literal
      | \s*(?:
        ([()+\-*/!&|=<])                    # 9 symbol
      | ([0-9]+)                            # 10 number
      | ([A-Za-z_][A-Za-z0-9_]*)            # 11 name
      | (\S)                                # 12 any other character
      | \Z
    )""",
    re.VERBOSE,
)
_SIGNED, _LITERAL, _SYMBOL, _NUMBER, _NAME = 4, 8, 9, 10, 11

_NAME_KINDS = {"inf": "inf", **dict.fromkeys(FUNCTIONS, "func"), **dict.fromkeys(_QUANTIFIERS, "quant")}

# eof tokens at the end of every token list.  The parser never moves past
# the first one, and no lookahead reaches more than two tokens beyond it,
# so it indexes the list without a bounds check.
_EOF_PADDING = 3

# A token is a tuple (kind, text, pos, mark), read by index:
#   kind  signed literal number var func inf quant char deep ( ) + - * / ! & | = < eof
#   text  its characters: a sign, a literal's n or, without n, e<k>
#   pos   the position of text, where an error at the token is reported
#   mark  1 on a '(' that opens a grouped formula, else 0
# A literal and a signed literal have three more fields (n, d, k): the
# digit strings of n, d and k, with None for an absent n or d.
_Tok = Tuple[Union[str, int, None], ...]


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
        if which == _SIGNED:
            append(("signed", m[1], m.start(1), 0, m[2], m[3], m[4]))
        elif which == _LITERAL:
            append(("literal", m[5], m.start(5), 0, m[6], m[7], m[8]))
        elif which == _SYMBOL:
            lexeme = m[9]
            if lexeme == "(":
                opened.append(len(tokens))
            elif lexeme == ")" and opened:
                group = opened.pop()
                if tokens[group][3] and opened and opened[-1] == group - 1:
                    tokens[group - 1] = tokens[group - 1][:3] + (1,)
            elif lexeme in "=<!&|" and opened:
                tokens[opened[-1]] = tokens[opened[-1]][:3] + (1,)
            append(("deep" if len(opened) > MAX_NESTING else lexeme, lexeme, m.end() - 1, 0))
        elif which == _NUMBER:
            append(("number", m[10], m.start(10), 0))
        elif which == _NAME:
            lexeme = m[11]
            append((_NAME_KINDS.get(lexeme, "var"), lexeme, m.start(11), 0))
        elif which is None:
            break
        else:
            append(("char", m[12], m.end() - 1, 0))
    tokens += [("eof", "", len(text), 0)] * _EOF_PADDING
    return tokens


# --- parser -----------------------------------------------------------------

_TERM_START = frozenset({"'0'", "'inf'", "'e<k>'", "coefficient", "variable", "function", "'('", "'-'"})


class _Parser:
    def __init__(self, tokens: List[_Tok], strict_llog: bool):
        self.tokens = tokens
        self.i = 0
        self.strict_llog = strict_llog

    def expect(self, kind: str, expected: FrozenSet[str]) -> _Tok:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            self.fail(tok, expected)
        self.i += 1
        return tok

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
        while (tok := self.tokens[self.i])[0] in ("+", "-", "signed"):
            self.i += 1
            rhs = Literal(gamma._monomial(*_read_term(tok))) if tok[0] == "signed" else self.product()
            node = Add(node, Neg(rhs)) if tok[1] == "-" else Add(node, rhs)
        return node

    def product(self) -> TermNode:
        node = self.unary()
        while self.tokens[self.i][0] == "/":
            self.i += 1
            tok = self.expect("number", frozenset({"positive integer divisor"}))
            divisor = int(tok[1])
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
        if kind == "literal":
            self.i += 1
            return Literal(gamma._monomial(*_read_term(tok)))
        if kind == "number":
            return self.bare_zero()
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

    def bare_zero(self) -> TermNode:
        """A number that starts no literal: a bare ``0``, or the error at the
        first token that keeps it from being ``n[/d]*e<k>``."""
        tokens, i = self.tokens, self.i
        num = int(tokens[i][1])
        if tokens[i + 1][0] == "/" and tokens[i + 2][0] == "number" and tokens[i + 3][0] == "*":
            if int(tokens[i + 2][1]) == 0:
                raise ParseError("zero denominator in coefficient", tokens[i + 2][2])
            self.fail(tokens[i + 4], frozenset({"'e<k>'"}))
        if tokens[i + 1][0] == "*":
            self.fail(tokens[i + 2], frozenset({"'e<k>'"}))
        self.i = i + 1
        if num == 0:
            return Literal(ZERO)
        self.fail(tokens[i + 1], frozenset({"'*'"}))

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
        tok = self.tokens[self.i]
        if tok[0] == "(" and tok[3]:  # a grouped formula, see _lex
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


def parse_any(text: str, strict_llog: bool = False) -> Node:
    """Parse a formula, or a term when the whole text is one term."""
    parser = _Parser(_lex(text), strict_llog)
    node = parser.formula()
    parser.expect("eof", frozenset({"end of input"}))
    return node


def _read_term(tok: _Tok) -> Tuple[int, int, int]:
    """``(k, n, d)`` of the ``n/d*e<k>`` of a literal or signed token, n or d 1
    where absent; both readers convert n, d, k in this order."""
    n = int(tok[4]) if tok[4] else 1
    d = int(tok[5]) if tok[5] else 1
    return int(tok[6]), n, d


def parse_element(text: str) -> ExtendedElement:
    """Read element text, 'inf', '0' or a sum of signed ``[q*]e<k>`` literals,
    with the term language's lexer; raises ElementError."""
    tokens, i = _lex(text), 1  # i is one past tok
    tok = tokens[0]
    kind = tok[0]
    if kind == "eof":
        raise ElementError("empty element text", tok[2])
    if kind == "inf":
        if tokens[1][0] != "eof":
            raise ElementError("trailing input after 'inf'", tokens[1][2])
        return INF
    if tok[:2] == ("number", "0") and tokens[1][0] == "eof":
        return ZERO
    if kind == "+":
        raise ElementError("unexpected leading '+'", tok[2])
    terms: List[Tuple[int, int, int]] = []
    while True:  # kind is that of the term's first token: its sign, or else its literal
        if kind in ("+", "-"):
            tok = tokens[i]
            i += 1
        if tok[0] != "literal":
            _term_error(tokens, i - 1)
        index, num, den = _read_term(tok)
        terms.append((index, -num if kind == "-" else num, den))
        while (tok := tokens[i])[0] == "signed":
            index, num, den = _read_term(tok)
            terms.append((index, -num if tok[1] == "-" else num, den))
            i += 1
        i += 1
        if tok[0] == "eof":  # terms as element text writes them, nonzero and increasing, need no sort
            last = -1
            for index, num, _ in terms:
                if index <= last or not num:
                    return gamma._summed(terms)
                last = index
            return gamma._from_terms(terms)
        if tok[0] not in ("+", "-"):
            raise ElementError("expected '+' or '-' between terms", tok[2])
        kind = tok[0]


def _term_error(tokens: List[_Tok], i: int) -> NoReturn:
    """The ElementError of a term of element text that is not a literal, at
    its first token that does not fit ``[n[/d]*]e<k>``."""
    kind, lexeme, pos = tokens[i][:3]
    if kind == "number":
        int(lexeme)  # a coefficient too long for int text fails first
        if tokens[i + 1][0] == "/":
            kind, lexeme, pos = tokens[i + 2][:3]
            i += 2
            if kind != "number":
                raise ElementError("expected denominator digits", pos)
            if int(lexeme) == 0:
                raise ElementError("zero denominator", pos + len(lexeme) - 1)
        if tokens[i + 1][0] != "*":
            raise ElementError("expected '*' after coefficient", tokens[i + 1][2])
        kind, lexeme, pos = tokens[i + 2][:3]
    if lexeme.startswith("e"):  # a name such as 'e', 'exists' or 'e1e2'
        run = len(lexeme) - 1 - len(lexeme[1:].lstrip("0123456789"))
        if run:
            raise ElementError("expected '+' or '-' between terms", pos + 1 + run)
        raise ElementError("expected basis index digits", pos + 1)
    raise ElementError("expected basis vector 'e<index>'", pos)


def is_variable(name: str) -> bool:
    """Whether ``name`` is exactly one variable token, as ``--let`` names must be."""
    return _lex(name)[0][:2] == ("var", name)


# --- one walk for every job ---------------------------------------------------
#
# Evaluation and formatting are tables from node type to a step.  A leaf
# step is a plain function of (node, arg) that returns the node's result.
# An inner step is a generator: it yields (child, arg) pairs, is sent each
# child's result, and returns its own; a step that returns before yielding
# a child never visits it.  ``_walk`` keeps the unfinished steps on a list,
# so no tree is too deep for it.


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
    operands from left to right, and add each value as the walk returns it;
    a literal or negated literal operand needs no walk step."""
    rights = []
    while type(node) is Add:
        rights.append(node.right)
        node = node.left
    acc = gamma.Sum()
    for operand in (node, *reversed(rights)):
        if type(operand) is Literal:
            acc.add(operand.value)
        elif type(operand) is Neg and type(operand.operand) is Literal:
            acc.add(operand.operand.value, -1)
        else:
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


# --- node names ---------------------------------------------------------------

# What ``cli`` writes under ``"node"`` for each class of the language.
NODE_NAMES = {kind: kind.__name__.lower() for kind in _EVAL} | {Neg: "negate", Div: "divide"}
