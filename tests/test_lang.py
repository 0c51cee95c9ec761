"""Term/formula parsing, canonical formatting, and evaluation."""

import ast
import contextlib
import copy
import functools
import dataclasses
import hashlib
import io
import pickle
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logcouple import cli, gamma, lang
from logcouple.gamma import INF, ZERO, GammaElement, unit
from logcouple.harness import MAX_SUPPORT, sample_coefficient, sample_element, trial_rng
from logcouple.lang import (
    Add,
    And,
    Apply,
    Div,
    Eq,
    EvalError,
    Literal,
    Lt,
    Neg,
    Not,
    Or,
    ParseError,
    Var,
)


def term(text, **kw):
    node = lang.parse_any(text, **kw)
    assert isinstance(node, lang.TermNode)
    return node


def formula(text, **kw):
    node = lang.parse_any(text, **kw)
    assert isinstance(node, lang.FormulaNode)
    return node


# --- grammar: one golden case per production ---------------------------------------

GOLDEN_TERMS = [
    ("0", Literal(ZERO), "0"),
    ("inf", Literal(INF), "inf"),
    ("e3", Literal(unit(3)), "e3"),
    ("3/2*e0", Literal(unit(0) * Fraction(3, 2)), "3/2*e0"),
    ("x", Var("x"), "x"),
    ("x + y", Add(Var("x"), Var("y")), "x + y"),
    ("x - y", Add(Var("x"), Neg(Var("y"))), "x - y"),
    ("-x", Neg(Var("x")), "-x"),
    ("--x", Neg(Neg(Var("x"))), "-(-x)"),
    ("x / 2", Div(Var("x"), 2), "x / 2"),
    ("x / 2 / 3", Div(Div(Var("x"), 2), 3), "x / 2 / 3"),
    ("psi(x)", Apply("psi", Var("x")), "psi(x)"),
    ("s(x)", Apply("s", Var("x")), "s(x)"),
    ("p(x)", Apply("p", Var("x")), "p(x)"),
    ("int(x)", Apply("int", Var("x")), "int(x)"),
    ("s(x) / 2", Div(Apply("s", Var("x")), 2), "s(x) / 2"),
    ("(x + y) / 2", Div(Add(Var("x"), Var("y")), 2), "(x + y) / 2"),
    ("-(x + y)", Neg(Add(Var("x"), Var("y"))), "-(x + y)"),
    ("x - -y", Add(Var("x"), Neg(Neg(Var("y")))), "x - -y"),
    (
        "x + y + z",
        Add(Add(Var("x"), Var("y")), Var("z")),
        "x + y + z",
    ),
    ("x + (y + z)", Add(Var("x"), Add(Var("y"), Var("z"))), "x + (y + z)"),
]


@pytest.mark.parametrize("text,node,canonical", GOLDEN_TERMS)
def test_term_production(text, node, canonical):
    parsed = term(text)
    assert parsed == node
    assert lang.format_any(parsed) == canonical
    assert term(canonical) == parsed


GOLDEN_FORMULAS = [
    ("x = y", Eq(Var("x"), Var("y")), "x = y"),
    ("x < y", Lt(Var("x"), Var("y")), "x < y"),
    ("!x = y", Not(Eq(Var("x"), Var("y"))), "!x = y"),
    ("x = y & y = z", And(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))), "x = y & y = z"),
    ("x = y | y = z", Or(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))), "x = y | y = z"),
    (
        "!x = y & y = z",
        And(Not(Eq(Var("x"), Var("y"))), Eq(Var("y"), Var("z"))),
        "!x = y & y = z",
    ),
    (
        "x = y & y = z | a = b",
        Or(And(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))), Eq(Var("a"), Var("b"))),
        "x = y & y = z | a = b",
    ),
    (
        "x = y | (y = z & a = b)",
        Or(Eq(Var("x"), Var("y")), And(Eq(Var("y"), Var("z")), Eq(Var("a"), Var("b")))),
        "x = y | y = z & a = b",
    ),
    (
        "(x = y | y = z) & a = b",
        And(Or(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))), Eq(Var("a"), Var("b"))),
        "(x = y | y = z) & a = b",
    ),
    ("!(x = y & y = z)", Not(And(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z")))), "!(x = y & y = z)"),
    # parenthesized formula vs parenthesized term both start with '('
    ("(x = y)", Eq(Var("x"), Var("y")), "x = y"),
    ("(x + y) = z", Eq(Add(Var("x"), Var("y")), Var("z")), "x + y = z"),
]


@pytest.mark.parametrize("text,node,canonical", GOLDEN_FORMULAS)
def test_formula_production(text, node, canonical):
    parsed = formula(text)
    assert parsed == node
    assert lang.format_any(parsed) == canonical
    assert formula(canonical) == parsed


def test_parse_any_picks_formula_when_present():
    assert isinstance(lang.parse_any("psi(e1) = e0 + e1"), Eq)
    assert isinstance(lang.parse_any("psi(e1)"), Apply)
    assert isinstance(lang.parse_any("x + y"), Add)


class _ReferenceParser(lang._Parser):
    """``lang._Parser`` with the token cursor of the reference parsers below."""

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def done(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.fail(tok, frozenset({"end of input"}))


class _TwoPassParser(_ReferenceParser):
    """The parser before ``parse_any`` took one pass: a comparison needs a relation."""

    def comparison(self):
        left = self.term()
        tok = self.peek()
        if tok[0] == "=":
            self.take()
            return Eq(left, self.term())
        if tok[0] == "<":
            self.take()
            return Lt(left, self.term())
        self.fail(tok, frozenset({"'='", "'<'"}))


def two_pass_parse_any(text, strict_llog=False):
    """Reference: parse a formula, else a term, and report the error that got further."""
    tokens = lang._lex(text)
    try:
        parser = _TwoPassParser(tokens, strict_llog)
        node = parser.formula()
        parser.done()
        return node
    except ParseError as formula_err:
        try:
            parser = _TwoPassParser(tokens, strict_llog)
            node = parser.term()
            parser.done()
            return node
        except ParseError as term_err:
            raise term_err if term_err.position > formula_err.position else formula_err


# Brackets and '=' appear twice, so more of the random strings nest and compare.
_REFERENCE_TOKENS = (
    "x", "y", "e0", "e3", "0", "2", "1/2*e1", "inf", "psi", "s", "p", "int", "forall",
    "(", "(", ")", ")", "+", "-", "*", "/", "!", "&", "|", "=", "=", "<", "?",
)


def _parse_outcome(parse, text, strict_llog):
    try:
        return parse(text, strict_llog=strict_llog)
    except ParseError as err:
        return str(err), err.position, err.expected


# The eval and fmt texts of the CLI golden corpus, in corpus order: a copy, not
# read from cli_golden.json, so that a new golden case leaves the digests in
# test_front_end_outcomes_are_pinned alone.
_CLI_TEXTS = (
    "psi(e1) = e0 + e1", "int(e0) + x", "s(x) < e0", "e0+  e1/2", "0", "inf", "3/2*e0 - 2*e3 + e7",
    "psi(2*e3)", "psi(0)", "s(2*e0)", "s(0)", "p(e0 + e1 + e2)", "p(e0)", "int(e0 + e1 + 3*e2)",
    "e0 + inf", "-inf", "(e0 - e1) / 3", "x / 2 + e0", "x + y", "x", "psi(e1)", "int(x) - x",
    "e0 < e1", "e0 < e1", "!e0 < e1", "e0 = e0 & e1 < e0", "e1 = e0 | e1 < e0", "inf = inf",
    "psi(0) = s(inf)", "(e0 + e1) = psi(e1)", "!(e0 = e0 & e1 = e1) | e0 < inf", "e0 = e0 | y = e0",
    "e1 < e0", "e1 < e0", "s(x) < e0", "x + e0", "e0 = e0 & y = e0", "psi(", "x + ?", "x / 0", "x =",
    "forall x (x = x)", "int(e0)", "psi(e0)", "x", "x", "x", "1/0*e0", "", "x+y+z", "x + (y + z)",
    "x - -y", "--x", "(x + y) / 2 / 3", "-(x + y)", "x = y | (y = z & a = b)",
    "(x = y | y = z) & a = b", "!(x = y & y = z)", "!!x < y", "s(x) / 2", "x = y & !x < y",
    "psi(e1) = e0 + e1", "-3/2*e4 + inf - 0", "int(x)", "x y", "exists y (x = y)", "e0", "x",
)


def _reference_texts():
    """CLI texts, random token strings, and formatted ASTs with and without one
    character cut out."""
    rng = random.Random(1802)
    texts = list(_CLI_TEXTS)
    for _ in range(3000):
        pieces = rng.choices(_REFERENCE_TOKENS, k=rng.randint(0, 9))
        texts.append(rng.choice(("", " ")).join(pieces))
    for _ in range(300):
        for node in (sample_term_ast(rng, 3), sample_formula_ast(rng, 2)):
            text = lang.format_any(node)
            cut = rng.randrange(len(text))
            texts += [text, text[:cut] + text[cut + 1 :]]
    return texts


def test_one_pass_parse_any_matches_two_pass_reference():
    for text in _reference_texts():
        for strict_llog in (False, True):
            expected = _parse_outcome(two_pass_parse_any, text, strict_llog)
            assert _parse_outcome(lang.parse_any, text, strict_llog) == expected, text


class _BacktrackingParser(_ReferenceParser):
    """The parser before the lexer marked grouped formulas: it tries each '('
    as a grouped formula and, when that fails, parses again from the '(' as a
    term."""

    def formula_atom(self):
        if self.peek()[0] == "(":
            # Either a grouped formula or a parenthesized term starting a
            # comparison: try the formula reading first, then backtrack.
            save = self.i
            self.take()
            try:
                inner = self.formula()
                self.expect(")", frozenset({"')'"}))
                return inner
            except ParseError:
                self.i = save
        return self.comparison()


def backtracking_parse_any(text, strict_llog=False):
    parser = _BacktrackingParser(lang._lex(text), strict_llog)
    node = parser.formula()
    parser.done()
    return node


def _deep_paren_texts():
    """Grouped formulas and parenthesized terms, nested 1 to 40 deep whole and
    with one parenthesis or a right-hand side missing, and whole at the cap
    and one past it (the reference parser's cost grows with depth squared)."""
    shapes = (
        "{o}e0{c} = e0", "{o}e0 = e0{c}", "{o}e0 = e0 &{c}", "{o}e0{c}", "{o}!(e0 = e1){c}",
        "{o}(e0) = e0{c}", "{o}e0 <{c}", "({o}e0 = e0{c} + e1) = e0", "{o}e0{c} + ({o}e1{c}) < e2",
        "{o}({o}e0{c} = e0 | e1 < e0{c}) & !{o}e1{c} = e1", "{o}psi({o}e0{c}){c} = e0",
    )
    for depth in (1, 2, 5, 40, lang.MAX_NESTING, lang.MAX_NESTING + 1):
        for shape in shapes:
            text = shape.format(o="(" * depth, c=")" * depth)
            yield text
            if depth < lang.MAX_NESTING:
                yield from (text[:-1], text.replace(")", "", 1), text.rpartition("=")[0])


def test_marked_parentheses_match_the_backtracking_reference():
    # Each '(' is read once, so an error may sit right of the one the
    # backtracking parser reported (that one came from the failed second
    # reading), but never left of it.
    cases = [(text, strict_llog) for text in _reference_texts() for strict_llog in (False, True)]
    for text, strict_llog in cases + [(text, False) for text in _deep_paren_texts()]:
        try:
            want = backtracking_parse_any(text, strict_llog)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                lang.parse_any(text, strict_llog)
            assert got.value.position >= err.position, text
        else:
            assert lang.parse_any(text, strict_llog) == want, text


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+)
  | (?P<basis>e[0-9]+(?![A-Za-z0-9_]))
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()+\-*/!&|=<])
  | (?P<char>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _ReferenceToken:
    kind: str
    text: str
    pos: int
    mark: int = 0  # 1 on a '(' that opens a formula
    num: str = None  # a literal's digits: n, d and k, None for an absent n or d
    den: str = None
    index: str = None
    end: int = -1  # one past the token's last character in the text


def _merge_literals(tokens):
    """Each ``number [/ number] * basis`` run as one literal token, unless the
    token before it is '/' or its denominator is all zeros, and each other
    basis vector, after a '/' too, as the literal ``1*e<k>``."""
    merged = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        kinds = [t.kind for t in tokens[i + 1 : i + 5]]
        size = 5 if kinds == ["/", "number", "*", "basis"] else 3 if kinds[:2] == ["*", "basis"] else 0
        den = tokens[i + 2].text if size == 5 else None
        if tok.kind == "number" and size and not (merged and merged[-1].kind == "/") and (den or "1").strip("0"):
            basis = tokens[i + size - 1]
            tok = _ReferenceToken("literal", tok.text, tok.pos, 0, tok.text, den, basis.text[1:], basis.end)
            i += size
        else:
            if tok.kind == "basis":
                tok = _ReferenceToken("literal", tok.text, tok.pos, 0, None, None, tok.text[1:], tok.end)
            i += 1
        merged.append(tok)
    return merged


def _merge_signs(tokens, text):
    """Each ``(+|-) literal`` after a token that ends in ``[0-9A-Za-z_)]`` as
    one signed token, where no '/' follows the literal."""
    merged = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if (
            merged
            and re.fullmatch(r"[0-9A-Za-z_)]", text[merged[-1].end - 1])
            and tok.kind in ("+", "-")
            and tokens[i + 1].kind == "literal"
            and tokens[i + 2].kind != "/"
        ):
            term = tokens[i + 1]
            tok = _ReferenceToken("signed", tok.text, tok.pos, 0, term.num, term.den, term.index, term.end)
            i += 1
        merged.append(tok)
        i += 1
    return merged


def _reference_lex(text, signs=True):
    """The lexer before it skipped whitespace inside each match: named groups
    dispatched by name, a basis vector a token of its own, one eof token; then
    each literal merged into one token, and then, with ``signs``, each sign
    with the literal after it."""
    tokens = []
    opened = []  # indices of the unclosed '(' tokens, innermost last
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        lexeme, pos = m[0], m.start()
        if kind == "name":
            tokens.append(_ReferenceToken(lang._NAME_KINDS.get(lexeme, "var"), lexeme, pos, end=m.end()))
        elif kind == "sym":
            if lexeme == "(":
                opened.append(len(tokens))
            elif lexeme == ")" and opened:
                group = opened.pop()
                if tokens[group].mark and opened and opened[-1] == group - 1:
                    tokens[group - 1].mark = 1
            elif lexeme in "=<!&|" and opened:
                tokens[opened[-1]].mark = 1
            tokens.append(_ReferenceToken("deep" if len(opened) > lang.MAX_NESTING else lexeme, lexeme, pos, end=m.end()))
        else:
            tokens.append(_ReferenceToken(kind, lexeme, pos, end=m.end()))
    tokens.append(_ReferenceToken("eof", "", len(text)))
    tokens = _merge_literals(tokens)
    return _merge_signs(tokens, text) if signs else tokens


def _whitespace_texts():
    """Tokens separated by each kind of whitespace, or by none, with whitespace
    around the whole text, and names that start like a basis vector."""
    spaces = (" ", "\t", "\n", "\u00a0", "\u3000", " \t\n ", "")
    shapes = ("3/4*e12 + e0", "(x = y) & !(e1 < 2*e0)", "psi(x) / 7 - 0", "e1e2 + e12x - e\u0663")
    for space in spaces:
        for shape in shapes:
            text = space.join(shape.split(" "))
            yield from (text, text + space, space + text + " " * 3)


# Shapes at the edges of the literal rule, each also with every token apart:
# whitespace inside a literal, a '/' before one with a coefficient or without,
# a zero denominator of one digit or more, an index that runs into a name, a
# numerator past Python's 4300-digit limit on int text, trailing whitespace,
# an 'e' apart from its digits.  Only the lexer test reads them, so the pinned
# digests below stay.
_LITERAL_SHAPES = (
    "3 / 4 * e12", "x / 2*e1", "0 / 0*e1", "1/0*e1", "2*e1x", "9" * 4301 + "*e1", "e01/2*e11", "2*3*e1",
    "1/2/3*e1", "-1/3*e3 + 4*e0", "x / e1", "x/ e1 + e2", "e1/2*e3", "psi(e0) / e1", "2 * e1 ", "e 3",
    "1/00*e1", "e1 - 0/00*e2", "e1 + 2 / 0 * e3",
)


# Shapes at the edges of the signed-literal rule: a '/' before or after a
# literal, a sign where no binary sign can stand, a sign before a term that is
# not a literal, a zero denominator (which keeps the sign apart) and a
# numerator past the 4300-digit limit (which does not), and signed literals on
# both sides of a comparison.  Only the lexer test and the both-readers check
# read them, so the pinned digests below stay.
_SIGNED_SHAPES = (
    "x / 2 + e1", "e1 + e2 / 3", "e1 + 2*e2 / 3 + e4", "2 + e1", "0 - e1", "psi + e1", "-e1 + e2", "e1 - -e2",
    "e1 + e2e3", "e1 + 2*e2x", "e1 + 1/0*e2", "e1 + " + "9" * 4301 + "*e2", "(e1 + e2) = e3 - e4",
)


def _apart(shapes):
    """Each shape, then the same shape with every token apart by U+3000."""
    for shape in shapes:
        yield shape
        yield "\u3000".join(re.findall(r"\w+|\S", shape))


def test_lexer_matches_the_reference_lexer():
    texts = [*_reference_texts(), *_deep_paren_texts(), *_whitespace_texts(), *_apart(_LITERAL_SHAPES + _SIGNED_SHAPES)]
    for text in texts:
        want = _reference_lex(text)
        got = lang._lex(text)
        assert len(got) == len(want) - 1 + lang._EOF_PADDING, text
        assert all(tok == ("eof", "", len(text), 0) for tok in got[len(want) - 1 :]), text
        for tok, old in zip(got, want):
            kind = tok[0]
            assert kind not in ("basis", "run") and tok[:3] == (old.kind, old.text, old.pos), text
            if kind in ("literal", "signed"):
                assert tok[3:] == (0, old.num, old.den, old.index), text
            else:
                assert tok[3:] == (old.mark,), text
            assert len(tok) == (7 if kind in ("literal", "signed") else 4), text


def _lex_unsigned(text):
    """``lang._lex``'s tokens with each signed literal apart: the reference
    tokens, each sign a token and its literal another."""
    out = []
    for tok in _reference_lex(text, signs=False)[:-1]:
        if tok.kind == "literal":
            out.append(("literal", tok.text, tok.pos, 0, tok.num, tok.den, tok.index))
        else:
            out.append((tok.kind, tok.text, tok.pos, tok.mark))
    return out + [("eof", "", len(text), 0)] * lang._EOF_PADDING


def _reader_outcomes(text):
    """What ``parse_any`` (both modes) and ``parse_element`` give: a value or
    the error's type, message and position."""
    outcomes = []
    for read in (lang.parse_any, functools.partial(lang.parse_any, strict_llog=True), lang.parse_element):
        try:
            outcomes.append(read(text))
        except ValueError as err:  # ParseError, ElementError, or int text past the digit limit
            outcomes.append((type(err).__name__, str(err), getattr(err, "position", None)))
    return outcomes


def test_signed_literals_change_no_outcome_of_either_reader(monkeypatch):
    # A signed literal is read as its sign and its literal would be: the same
    # tree, the same element, and each error of either reader at the same place.
    texts = [*_apart(_SIGNED_SHAPES), *_element_texts(), *_reference_texts(), *_whitespace_texts()]
    assert sum(tok[0] == "signed" for text in texts for tok in lang._lex(text)) > 400
    got = [_reader_outcomes(text) for text in texts]
    monkeypatch.setattr(lang, "_lex", _lex_unsigned)
    assert [_reader_outcomes(text) for text in texts] == got
    monkeypatch.undo()
    with pytest.raises(ParseError, match=r"^unexpected '\+' at position 2 \(expected '\*'\)$"):
        lang.parse_any("2 + e1")


def test_only_lang_reads_tokens():
    # The layout of a token tuple is lang's own: no other module in src/ names the
    # lexer or the parser, in code or in a string (cli asks lang.is_variable).
    for path in sorted(Path(lang.__file__).parent.glob("*.py")):
        if path.name == "lang.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            assert not names & {"_lex", "_Parser"}, f"{path.name}:{getattr(node, 'lineno', '?')}"


def _element_texts():
    """Element text: formatted sampled elements respaced at random, and sums with
    ``n/d*`` coefficients, sign runs and repeated indices; each whole and with
    one character cut out."""
    rng = random.Random(2510)

    def space():
        return rng.choice(("", "", " ", "  ", "\t"))

    texts = []
    for _ in range(400):
        pieces = re.findall(r"e?[0-9]+|inf|\S", gamma.format_element(sample_element(rng.getrandbits)))
        texts.append(space() + "".join(piece + space() for piece in pieces))
        text = space()
        for n in range(rng.randint(1, 6)):
            signs = rng.choice(("", "", "-", "--", "+") if n == 0 else ("+", "+", "-", "-", "+-", "--", "-+-"))
            coefficient = rng.choice(("", "{n}*", "{n}/{d}*", "{n} / {d} *", "{n}/{d}"))
            text += signs + space() + coefficient.format(n=rng.randint(0, 12), d=rng.randint(0, 6))
            text += space() + f"e{rng.randint(0, 4)}" + space()
        texts.append(text)
    for text in texts[:]:
        if text:
            cut = rng.randrange(len(text))
            texts.append(text[:cut] + text[cut + 1 :])
    return texts


def _outcome_digest(outcomes):
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome).encode() + b"\n")
    return digest.hexdigest()


def test_front_end_outcomes_are_pinned():
    # Every tree, message, position and expected set that parse_any gives, and
    # every value or message and position that parse_element gives, on the
    # corpora above.  The digests were recorded while each token was a
    # dataclass object, so a change of token layout that moves any error shows.
    def parse(text, strict_llog):
        try:
            return repr(lang.parse_any(text, strict_llog))
        except ParseError as err:
            return str(err), err.position, sorted(err.expected)

    def read(text):
        try:
            return gamma.format_element(lang.parse_element(text))
        except lang.ElementError as err:
            return str(err), err.position

    texts = [*_reference_texts(), *_deep_paren_texts(), *_whitespace_texts()]
    parsed = (parse(text, strict_llog) for text in texts for strict_llog in (False, True))
    assert _outcome_digest(parsed) == "699c0735fb64f3aa1e4fa6723645a67e969307cef70c5547e6ee825f80961a2b"
    read_all = (read(text) for text in [*texts, *_element_texts()])
    assert _outcome_digest(read_all) == "bdd17a0fcbb9483faa9eae7c62da7c48152fe734a2b7653a477550a4e4b4b022"


_TERM_EXPECTED = "(expected '(', '-', '0', 'e<k>', 'inf', coefficient, function, variable)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("(" * 127 + "e0 = e0 &" + ")" * 127, f"unexpected ')' at position 136 {_TERM_EXPECTED}"),
        ("(y<)", f"unexpected ')' at position 3 {_TERM_EXPECTED}"),
    ],
    ids=["deep-and", "less-than"],
)
def test_grouped_formula_errors_point_at_the_fault(text, message):
    # The backtracking parser blamed the valid '=' at 130, resp. '<' at 2.
    with pytest.raises(ParseError) as err:
        lang.parse_any(text)
    assert str(err.value) == message


def test_zero_literal_vs_division():
    assert term("0") == Literal(ZERO)
    assert term("0 / 2") == Div(Literal(ZERO), 2)
    assert term("x / 10") == Div(Var("x"), 10)


# --- errors -----------------------------------------------------------------------


def test_error_positions():
    with pytest.raises(ParseError) as err:
        term("psi(")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        formula("x =")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        term("x + ?")
    assert err.value.position == 4


@pytest.mark.parametrize("text, at_start, at_last_digit", [("1/00*e1", 2, 3), ("e0 + 1/00*e1", 7, 8)])
def test_zero_denominator_errors_point_at_the_digits(text, at_start, at_last_digit):
    # A zero denominator of any length lexes as a number: parse_any reports
    # its first digit, parse_element its last.
    with pytest.raises(ParseError, match=rf"^zero denominator in coefficient at position {at_start}$"):
        lang.parse_any(text)
    with pytest.raises(lang.ElementError, match=rf"^zero denominator \(at position {at_last_digit}\)$"):
        lang.parse_element(text)


def test_error_reports_expected_tokens():
    with pytest.raises(ParseError) as err:
        term("")
    assert "expected" in str(err.value)


@pytest.mark.parametrize("text", ["x / 0", "x / y", "x / 2.5"])
def test_division_requires_positive_integer(text):
    with pytest.raises(ParseError):
        term(text)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        term("x + y z")
    assert err.value.position == 6


def test_leftmost_error_wins():
    # An unknown character no longer hides an error to its left.
    with pytest.raises(ParseError) as err:
        lang.parse_any("x y ?")
    assert str(err.value) == "unexpected 'y' at position 2 (expected '<', '=')"
    with pytest.raises(lang.ElementError) as err:
        lang.parse_element("e0 e1 ?")
    assert str(err.value) == "expected '+' or '-' between terms (at position 3)"
    # A number too long for int() is text until the parser reaches it.
    huge = "? + " + "9" * 5000 + "*e0"
    with pytest.raises(ParseError) as err:
        lang.parse_any(huge)
    assert str(err.value) == "unexpected character '?' at position 0"
    with pytest.raises(lang.ElementError) as err:
        lang.parse_element(huge)
    assert str(err.value) == "expected basis vector 'e<index>' (at position 0)"


@pytest.mark.parametrize("quant", ["forall", "exists"])
def test_quantifiers_get_pointed_error(quant):
    with pytest.raises(ParseError) as err:
        lang.parse_any(f"{quant} x (x = x)")
    assert "quantifier" in str(err.value)
    assert "quantifier-free" in str(err.value)


def test_strict_mode_rejects_integral_only():
    with pytest.raises(ParseError) as err:
        term("int(x)", strict_llog=True)
    assert "strict" in str(err.value)
    assert term("psi(x) + s(y)", strict_llog=True) == Add(
        Apply("psi", Var("x")), Apply("s", Var("y"))
    )


def test_divide_node_validates():
    for divisor in (0, True, False):
        with pytest.raises(ValueError):
            Div(Var("x"), divisor)
    with pytest.raises(ValueError):
        Apply("log", Var("x"))


def _reference_node_classes():
    """lang's 11 AST node classes as they were: frozen dataclasses, with
    ``Div`` and ``Apply`` checking their fields in ``__post_init__``."""

    def check_divisor(node):
        if type(node.divisor) is not int or node.divisor < 1:
            raise ValueError(f"divisor must be a positive integer, got {node.divisor!r}")

    def check_func(node):
        if node.func not in lang.FUNCTIONS:
            raise ValueError(f"unknown function {node.func!r}")

    shapes = [
        ("Literal", ["value"]), ("Var", ["name"]), ("Add", ["left", "right"]), ("Neg", ["operand"]),
        ("Div", ["operand", "divisor"]), ("Apply", ["func", "operand"]), ("Eq", ["left", "right"]),
        ("Lt", ["left", "right"]), ("Not", ["operand"]), ("And", ["left", "right"]), ("Or", ["left", "right"]),
    ]
    checks = {"Div": check_divisor, "Apply": check_func}
    classes = {}
    for name, fields in shapes:
        namespace = {"__post_init__": checks[name]} if name in checks else None
        classes[name] = dataclasses.make_dataclass(name, fields, frozen=True, namespace=namespace)
    return classes


_REFERENCE_NODES = _reference_node_classes()


def _field_values(node):
    """A node's fields, read in the reference class's field order."""
    return [getattr(node, f.name) for f in dataclasses.fields(_REFERENCE_NODES[type(node).__name__])]


def _as_reference(node):
    """The same tree built from the reference classes."""
    args = [_as_reference(a) if type(a).__name__ in _REFERENCE_NODES else a for a in _field_values(node)]
    return _REFERENCE_NODES[type(node).__name__](*args)


def _parity_nodes():
    """Sampled term and formula trees, and every tree ``parse_any`` reads from
    ``_reference_texts()``, each parsed twice: equal trees that are not the
    same object."""
    rng = random.Random(2611)
    nodes = [sample_term_ast(rng) for _ in range(300)] + [sample_formula_ast(rng) for _ in range(300)]
    for text in _reference_texts():
        try:
            nodes += [lang.parse_any(text), lang.parse_any(text)]
        except ParseError:
            pass
    return nodes


def test_nodes_match_the_reference_dataclasses():
    nodes = _parity_nodes()
    refs = [_as_reference(node) for node in nodes]
    for node, ref in zip(nodes, refs):
        assert repr(node) == repr(ref)
        assert hash(node) == hash(ref)
    for (a, ref_a), (b, ref_b) in zip(zip(nodes, refs), zip(nodes[1:], refs[1:])):
        assert (a == b, a != b) == (ref_a == ref_b, ref_a != ref_b), (a, b)
    # Nodes of two kinds with the same fields are unequal, as are the references.
    swaps = {Eq: Lt, Lt: Eq, And: Or, Or: And, Add: Eq, Neg: Not, Not: Neg}
    for node in nodes:
        if type(node) in swaps:
            twin = swaps[type(node)](*_field_values(node))
            assert node != twin and not node == twin and _as_reference(twin) != _as_reference(node)


def test_node_fields_cannot_be_assigned():
    for node in _parity_nodes():
        for name in (*type(node).__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert not hasattr(node, "__dict__")
        assert copy.copy(node) == node
    # a tree with literals pickles: copy and pickle rebuild each GammaElement
    node = formula("psi(x) / 2 = 1/2*e1 - e0 | !(x < inf) & 0 < e3")
    assert pickle.loads(pickle.dumps(node)) == node and copy.deepcopy(node) == node


@pytest.mark.parametrize(
    "kind, fields",
    [("Div", {"operand": Var("x"), "divisor": d}) for d in (1, 7, 2**70, 0, -3, True, False, 2.0, "2", None)]
    + [("Apply", {"func": f, "operand": Var("x")}) for f in (*lang.FUNCTIONS, "log", "", "PSI", None, 1)],
)
def test_checked_nodes_reject_what_the_reference_rejects(kind, fields):
    def outcome(cls, *args, **kwargs):
        try:
            return repr(cls(*args, **kwargs))
        except ValueError as err:
            return str(err)

    new, ref = getattr(lang, kind), _REFERENCE_NODES[kind]
    want = outcome(ref, *fields.values())
    assert outcome(new, *fields.values()) == want
    assert outcome(new, **fields) == want
    assert outcome(ref, **fields) == want


# --- element text: the literal sums of the term language ---------------------------

@st.composite
def literal_sums(draw):
    """Signed ``[q*]e<k>`` terms in any order, indices repeating, spaces optional."""
    space = st.sampled_from(("", " ", "  "))
    text = ""
    for n in range(draw(st.integers(1, 6))):
        text += draw(space) + draw(st.sampled_from(("", "-") if n == 0 else ("+", "-")))
        if draw(st.booleans()):
            text += draw(space) + str(draw(st.integers(0, 99)))
            if draw(st.booleans()):
                text += f"{draw(space)}/{draw(space)}{draw(st.integers(1, 99))}"
            text += f"{draw(space)}*"
        text += f"{draw(space)}e{draw(st.integers(0, 5))}"
    return text + draw(space)


@given(literal_sums())
def test_element_text_is_the_literal_sum_fragment(text):
    element = lang.parse_element(text)
    assert element == lang.evaluate(lang.parse_any(text))
    assert dict(element.coords) == oracle.parse(text)


def test_both_readers_agree_on_spacing_and_index_digits():
    three_halves = unit(0) * Fraction(3, 2)
    assert lang.parse_element("3 / 2*e0") == lang.evaluate(lang.parse_any("3 / 2*e0")) == three_halves
    with pytest.raises(lang.ElementError):
        lang.parse_element("e\u0663")  # ARABIC-INDIC DIGIT THREE
    with pytest.raises(ParseError):
        lang.parse_any("e\u0663")


@pytest.mark.parametrize(
    "argv, position",
    [(["eval", "\u0663*e0"], 0), (["eval", "x / \u0663", "--let", "x=e0"], 4)],
    ids=["coefficient", "divisor"],
)
def test_numbers_take_only_ascii_digits(argv, position):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert (rc, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: unexpected character '\u0663' at position {position}\n"


# --- evaluation -------------------------------------------------------------------


def test_default_values():
    assert lang.evaluate(term("psi(0)")) == INF
    assert lang.evaluate(term("s(inf)")) == INF
    assert lang.evaluate(term("p(e0)")) == INF
    assert lang.evaluate(term("e0 + inf")) == INF
    assert lang.evaluate(term("-inf")) == INF
    assert lang.evaluate(term("inf / 4")) == INF
    assert lang.evaluate(term("int(0)")) == -unit(0)


def test_eval_with_bindings():
    env = {"x": unit(3) * 2}
    assert lang.evaluate(term("psi(x)"), env) == gamma.psi_element(3)
    assert lang.evaluate(term("x / 2 + e0"), env) == GammaElement([(0, 1), (3, 1)])
    assert lang.evaluate(formula("psi(e1) = e0 + e1")) is True
    assert lang.evaluate(formula("e0 < e1")) is False
    assert lang.evaluate(formula("!e0 < e1")) is True
    assert lang.evaluate(formula("e0 = e0 & e1 < e0")) is True
    assert lang.evaluate(formula("e1 = e0 | e1 < e0")) is True


def test_eval_inf_comparisons():
    assert lang.evaluate(formula("inf = inf")) is True
    assert lang.evaluate(formula("e0 < inf")) is True
    assert lang.evaluate(formula("inf < e0")) is False
    # absorption makes both sides inf
    assert lang.evaluate(formula("psi(0) = s(inf)")) is True


def test_unbound_variable_is_named():
    with pytest.raises(EvalError) as err:
        lang.evaluate(term("x + e0"), {"y": ZERO})
    assert "'x'" in str(err.value)
    # a sum evaluates its operands from left to right
    with pytest.raises(EvalError) as err:
        lang.evaluate(term("x + y + z"), {"x": ZERO})
    assert "'y'" in str(err.value)
    assert lang.evaluate(term("e0 + inf - e0")) is INF
    assert lang.evaluate(term("e0 + (e1 + e2) - e0")) == unit(1) + unit(2)


def test_and_or_short_circuit():
    assert lang.evaluate(formula("e0 = e0 | y = e0")) is True
    assert lang.evaluate(formula("e1 = e0 & y = e0")) is False
    with pytest.raises(EvalError):
        lang.evaluate(formula("e0 = e0 & y = e0"))


def test_non_node_is_rejected():
    with pytest.raises(TypeError):
        lang.evaluate(Add(Var("x"), "y"), {"x": ZERO})


# --- depth ------------------------------------------------------------------------


def test_walks_do_not_recurse_per_level():
    depth = 20000
    sum_tree = Literal(unit(0))
    nots = Eq(Var("x"), Var("x"))
    for _ in range(depth):
        sum_tree = Add(sum_tree, Literal(unit(0)))
        nots = Not(nots)
    assert lang.evaluate(sum_tree) == unit(0) * (depth + 1)
    assert lang.evaluate(nots, {"x": ZERO}) is True
    assert lang.format_any(sum_tree) == " + ".join(["e0"] * (depth + 1))
    assert lang.format_any(nots) == "!" * depth + "x = x"


def test_prefix_runs_parse_without_recursion():
    assert lang.evaluate(formula("!" * 5001 + "e0 = e0")) is False
    assert lang.evaluate(term("-" * 5000 + "e1")) == unit(1)


def test_nesting_cap():
    depth = lang.MAX_NESTING
    calls = "psi(" * depth + "x" + ")" * depth
    assert lang.format_any(term(calls)) == calls
    assert formula("(" * depth + "x = y" + ")" * depth) == Eq(Var("x"), Var("y"))
    with pytest.raises(ParseError) as err:
        term("(" * depth + "psi(x" + ")" * (depth + 1))
    assert err.value.position == depth + len("psi")
    assert "nested deeper than" in str(err.value)


# --- round trips over sampled ASTs -------------------------------------------------

_AST_VARS = ("x", "y", "z")


def sample_literal_ast(rng: random.Random) -> Literal:
    roll = rng.random()
    if roll < 0.15:
        return Literal(ZERO)
    if roll < 0.3:
        return Literal(INF)
    coeff = abs(sample_coefficient(rng.getrandbits))
    return Literal(gamma.unit(rng.randint(0, MAX_SUPPORT)) * coeff)


def sample_term_ast(rng: random.Random, depth: int = 4) -> lang.TermNode:
    """Random parser-canonical term AST (literals are single pieces)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Var(rng.choice(_AST_VARS))
        return sample_literal_ast(rng)
    roll = rng.randrange(4)
    if roll == 0:
        return Add(sample_term_ast(rng, depth - 1), sample_term_ast(rng, depth - 1))
    if roll == 1:
        return Neg(sample_term_ast(rng, depth - 1))
    if roll == 2:
        return Div(sample_term_ast(rng, depth - 1), rng.randint(1, 9))
    return Apply(rng.choice(lang.FUNCTIONS), sample_term_ast(rng, depth - 1))


def sample_formula_ast(rng: random.Random, depth: int = 3) -> lang.FormulaNode:
    if depth <= 0 or rng.random() < 0.35:
        ctor = Eq if rng.random() < 0.5 else Lt
        return ctor(sample_term_ast(rng, 2), sample_term_ast(rng, 2))
    roll = rng.randrange(3)
    if roll == 0:
        return Not(sample_formula_ast(rng, depth - 1))
    if roll == 1:
        return And(sample_formula_ast(rng, depth - 1), sample_formula_ast(rng, depth - 1))
    return Or(sample_formula_ast(rng, depth - 1), sample_formula_ast(rng, depth - 1))


def test_term_round_trip_sampled():
    for trial in range(2000):
        node = sample_term_ast(trial_rng(2024, trial))
        assert term(lang.format_any(node)) == node


def test_formula_round_trip_sampled():
    for trial in range(1500):
        node = sample_formula_ast(trial_rng(4096, trial))
        assert formula(lang.format_any(node)) == node


def test_format_any_dispatch():
    assert lang.format_any(term("x + y")) == "x + y"
    assert lang.format_any(formula("x = y")) == "x = y"


def test_noncanonical_literal_formats_value_correctly():
    # multi-term literals exist programmatically; reparsing yields an
    # equal-valued sum tree rather than the literal node
    node = Literal(GammaElement([(0, 1), (1, -2)]))
    text = lang.format_any(node)
    assert lang.evaluate(term(text)) == lang.evaluate(node)


def test_node_names_cover_the_language():
    # cli names every node it writes from this table, and every node is one evaluate and format_any accept
    assert set(lang.NODE_NAMES) == set(lang._EVAL) == set(lang._FORMAT)
    assert len(set(lang.NODE_NAMES.values())) == len(lang.NODE_NAMES)
