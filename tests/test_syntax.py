"""Parser, printer, problem documents, and tactic scripts."""

import json
from dataclasses import replace

import pytest

from holebox.expr import (
    INT, LocalDecl, NAT, PROP, RAT, REAL, SortError, Telescope, alpha_eq,
    children, fn, mk_app, mk_atom, mk_conn, mk_lit, mk_var, set_of,
    substitute, syntactic_eq,
)
from holebox.kernel import Goal, SolutionState, apply_tactic, recheck
from holebox.norm import normalize
from holebox.syntax import (
    MAX_DEPTH, DfpsShapeError, ParseError, SchemaError, parse_problem,
    parse_script, parse_term, print_term,
)
from holebox.tactics.decide import decide_prop
from holebox.tactics.rewrite import SubtermIndex


def test_parse_equation(tele):
    term = parse_term("x^2 - 1 = 0", Telescope((LocalDecl("x", REAL),)))
    assert term.sort == PROP
    assert print_term(term) == "x ^ 2 - 1 = 0"


def test_parse_abs_bound_over_int():
    tele = Telescope((LocalDecl("x", INT),))
    term = parse_term("abs (x - 2) <= 28 / 5", tele)
    assert term.sort == PROP


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_term("")


def test_whitespace_insensitive(tele):
    a = parse_term("x + 0", tele)
    b = parse_term("x +  0", tele)
    assert syntactic_eq(a, b)
    c = parse_term("x+0", tele)
    assert syntactic_eq(a, c)


def test_unicode_aliases(tele):
    a = parse_term("∀ (m : Int), m ≤ 3 ∧ ¬(m ≠ m)", tele)
    b = parse_term("forall (m : Int), m <= 3 /\\ not (m != m)", tele)
    assert syntactic_eq(a, b)
    assert "∀" not in print_term(a)


def test_exact_fraction_literal():
    lit = parse_term("3.64", expected=RAT)
    assert print_term(lit) == "91/25"
    back = parse_term("91/25", expected=RAT)
    assert syntactic_eq(lit, back)


def test_meta_printing_round_trip():
    menv = {"w": REAL}
    tele = Telescope((LocalDecl("f", None or INT),))
    term = parse_term("?w = 3", metas=menv)
    assert print_term(term) == "?w = 3"
    again = parse_term(print_term(term), metas=menv)
    assert syntactic_eq(term, again)


def test_round_trip_fuzzed(fuzzer, tele):
    for _ in range(300):
        term = fuzzer.term(3)
        printed = print_term(term)
        back = parse_term(printed, tele, expected=term.sort)
        assert syntactic_eq(term, back), printed


def test_binder_round_trip(tele):
    samples = [
        "forall (a : Int), exists (b : Int), a < b",
        "fun (a : Rat) => a * a",
        "{a : Int | a in S /\\ 0 < a}",
        "sum d in range 1 4, d * d",
        "{1, 2, 3}",
    ]
    for text in samples:
        term = parse_term(text, tele)
        back = parse_term(print_term(term), tele, expected=term.sort)
        assert syntactic_eq(term, back)


def test_shadowed_binder_printing(tele):
    # inner binder shadows an outer telescope variable; printing renames
    term = parse_term("forall (x : Int), x <= x", tele)
    printed = print_term(term)
    back = parse_term(printed, tele, expected=PROP)
    assert syntactic_eq(term, back)


def test_quantifier_runs_print_as_one_binder_group(tele):
    term = parse_term("forall (a : Int), forall (b : Nat), exists (c : Int),"
                      " exists (c : Int), a < c \\/ b = b", tele)
    assert print_term(term) == ("forall (a : Int) (b : Nat), exists (c : Int)"
                                " (c1 : Int), a < c1 \\/ b = b")
    assert alpha_eq(parse_term(print_term(term), tele), term)


def test_binder_group_beyond_the_nesting_bound_reads_back(tele):
    names = " ".join(f"v{i}" for i in range(60))
    term = parse_term(f"forall ({names} : Int), x = x", tele)
    printed = print_term(term)
    assert printed.count("forall") == 1
    assert parse_term(printed, tele, PROP) is term


def test_numerals_are_decimal_digits(tele):
    assert print_term(parse_term("\u0663 + 1", tele, INT)) == "3 + 1"
    for text in ("2\u00b2", "x = 2\u00b2", "\u00bd"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_term(text, tele)


@pytest.mark.parametrize("text", ["card {1, 2, 3} = 3", "card (Icc 1 5) = 5",
                                  "3 = card {1, 2, 3}", "card {1/2} = 1"])
def test_cardinality_anchors_a_comparison_at_nat(text):
    term = parse_term(text, Telescope(), PROP)
    assert term.args[0].sort == term.args[1].sort == NAT
    assert print_term(term) == text


ELAB_TELE = Telescope((
    LocalDecl("x", INT), LocalDecl("s", set_of(INT)),
    LocalDecl("h", PROP, prop=mk_atom("eq", (mk_var("x", INT),
                                              mk_lit(1, INT))))))


@pytest.mark.parametrize("text, expected, message", [
    ("h + 1", INT, "'h' names a hypothesis, not a term"),
    ("abs", INT, "'abs' expects arguments"),
    ("sum k in x, k", INT, "sum ranges over a set"),
    ("-x", PROP, "numeric expression where Prop expected"),
    ("x = 1", INT, "comparison where Int expected"),
    ("x in s", INT, "membership where Int expected"),
    ("1 in x", PROP, "membership in Int"),
    ("2 dvd x", INT, "divisibility where Int expected"),
    ("forall (y : Int), y = y", INT, "quantifier where Int expected"),
    ("abs x x", INT, "abs expects 1 argument(s), got 2"),
    ("frob x", INT, "unknown identifier 'frob'"),
    ("x 1", INT, "cannot apply a value of sort Int"),
])
def test_ill_sorted_terms_rejected(text, expected, message):
    with pytest.raises(SortError) as err:
        parse_term(text, ELAB_TELE, expected)
    assert message in str(err.value)


@pytest.mark.parametrize("text, expected, printed", [
    # a numeral with nothing to anchor it is an Int
    ("-3", None, "-3"),
    # propositions compared with `=` or `!=` are an iff
    ("prime 7 = True", PROP, "prime 7 <-> True"),
    ("(1 = 1) != False", PROP, "not (1 = 1 <-> False)"),
    ("rat 2 = 2", PROP, "rat 2 = 2"),
    ("card (union s {1}) = 2", PROP, "card (s \\/ {1}) = 2"),
    ("card (inter s {1}) = 1", PROP, "card (s /\\ {1}) = 1"),
    ("pi < 4", PROP, "pi < 4"),
])
def test_builtins_and_anchors_elaborate_and_print(text, expected, printed):
    assert print_term(parse_term(text, ELAB_TELE, expected)) == printed


@pytest.mark.parametrize("text, elem", [
    ("card (union {1, 2} {2, 3}) = 3", INT),
    ("card ({1, 2} \\/ {2, 3}) = 3", INT),
    ("card ({1, 2} /\\ (Icc 2 5 \\/ {7})) = 1", INT),
    ("card (inter {1/2, 2} {2}) = 1", RAT),
])
def test_unanchored_set_operands_fall_back_to_a_set_of_numerals(text, elem):
    # two sets of bare numerals have no anchor: they are sets of Int, or
    # of Rat when an element is fractional, and print back as they read
    term = parse_term(text, Telescope(), PROP)
    [setop] = term.args[0].args
    assert setop.sort == setop.args[0].sort == set_of(elem)
    assert parse_term(print_term(term), Telescope(), PROP) == term


# the sort of each element of the set (or operand of the union) that
# `card` counts, one `Set` per level of nesting
NUMERAL_SET_SORTS = {
    "card {{1, 2}, {3}} = 2": set_of(INT),
    "card {{1} \\/ {2}, {3}} = 2": set_of(INT),
    "card {{{1}}, {{2}}} = 2": set_of(set_of(INT)),
    "card {{{1/2}}} = 1": set_of(set_of(RAT)),
    "card ({{1}} \\/ {{2}}) = 2": set_of(set_of(INT)),
    "card {{{1}} \\/ {{2}}} = 1": set_of(set_of(INT)),
}


@pytest.mark.parametrize("text", list(NUMERAL_SET_SORTS))
def test_a_set_literal_of_numeral_sets_falls_back_to_sets_of_numerals(text):
    # the elements are sets of bare numerals, literals or unions, nested
    # to any depth, and the whole prints back as it reads
    term = parse_term(text, Telescope(), PROP)
    outer = term.args[0].args[0]
    assert {e.sort for e in outer.args} == {NUMERAL_SET_SORTS[text]}
    assert print_term(term) == text


def test_cardinality_of_an_interval_decides():
    assert decide_prop(parse_term("card (Icc 1 5) = 5", Telescope(),
                                  PROP))[0] is True
    assert decide_prop(parse_term("card (Icc 1 5) = 4", Telescope(),
                                  PROP))[0] is False


# -- problems ---------------------------------------------------------------

FIND_ALL_DOC = {
    "format_version": "1",
    "framework": "fps",
    "vars": [["x", "Int"]],
    "queriable": ["a", "Set Int"],
    "hypotheses": [["hlb", "-2 <= x"], ["hub", "x <= 2"]],
    "conclusions": ["x in a <-> x^2 - 1 = 0"],
    "answer": "{-1, 1}",
}


def test_parse_problem_find_all():
    p = parse_problem(json.dumps(FIND_ALL_DOC))
    assert p.framework == "fps"
    assert p.queriable == ("a", set_of(INT))
    assert [n for n, _ in p.vars] == ["x"]
    assert print_term(p.concls[0]) == "x in a <-> x ^ 2 - 1 = 0"
    assert print_term(p.answer) == "{-1, 1}"


def test_problem_telescope_is_built_once():
    p = parse_problem(json.dumps(FIND_ALL_DOC))
    tele = p.telescope()
    assert p.telescope() is tele
    assert tele.names() == ("x", "hlb", "hub")
    fewer = replace(p, hyps=p.hyps[:1])
    assert fewer.telescope().names() == ("x", "hlb")
    assert fewer == replace(p, hyps=p.hyps[:1]) and fewer != p


def test_queriable_name_clash():
    doc = dict(FIND_ALL_DOC, queriable=["x", "Set Int"])
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_dfps_shape_validation():
    doc = {
        "format_version": "1", "framework": "dfps",
        "vars": [["x", "Int"]], "queriable": ["A", "Prop"],
        "hypotheses": [], "conclusions": ["x = 1 <-> A"],
    }
    p = parse_problem(json.dumps(doc))
    assert p.framework == "dfps"
    bad = dict(doc, conclusions=["x = 1"])
    with pytest.raises(DfpsShapeError):
        parse_problem(json.dumps(bad))
    bad2 = dict(doc, queriable=["A", "Int"],
                conclusions=["x = 1 <-> A = 1"])
    with pytest.raises(DfpsShapeError):
        parse_problem(json.dumps(bad2))


def test_conclusions_are_one_conjunction():
    doc = dict(FIND_ALL_DOC, conclusions=["x in a", "x <= 2", "0 <= x"])
    p = parse_problem(json.dumps(doc))
    assert print_term(p.conclusion()) == "x in a /\\ x <= 2 /\\ 0 <= x"


DFPS_DOC = {"format_version": "1", "framework": "dfps",
            "vars": [["x", "Int"]], "queriable": ["A", "Prop"],
            "hypotheses": [], "conclusions": ["x = 1 <-> A"]}


@pytest.mark.parametrize("doc, error, message", [
    ("{", SchemaError, "invalid JSON"),
    ("[1]", SchemaError, "problem document must be a JSON object"),
    (dict(FIND_ALL_DOC, framework="lean"), SchemaError,
     "framework must be 'fps' or 'dfps', got 'lean'"),
    (dict(FIND_ALL_DOC, vars=[["x"]]), SchemaError,
     "malformed vars/queriable"),
    (dict(FIND_ALL_DOC, queriable=["a", "Set Int Int"]), SchemaError,
     "trailing input in sort 'Set Int Int'"),
    (dict(FIND_ALL_DOC, hypotheses=[["h"]]), SchemaError,
     "malformed hypothesis entry ['h']"),
    (dict(FIND_ALL_DOC, conclusions=["x in"]), SchemaError, "conclusion: "),
    (dict(FIND_ALL_DOC, answer="{-1,"), SchemaError, "answer: "),
    (dict(DFPS_DOC, conclusions=["x = 1 <-> A", "x = 1"]), DfpsShapeError,
     "dfps requires exactly one conclusion"),
    (dict(DFPS_DOC, conclusions=["A <-> x = 1"]), DfpsShapeError,
     "the queriable on the right"),
    (dict(DFPS_DOC, conclusions=["(x = 1 /\\ A) <-> A"]), DfpsShapeError,
     "queriable occurs inside the dfps body"),
], ids=["json", "not-an-object", "framework", "vars", "sort", "hypothesis",
        "conclusion", "answer", "dfps-conclusions", "dfps-right",
        "dfps-inside"])
def test_malformed_problem_rejected(doc, error, message):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(error) as err:
        parse_problem(text)
    assert message in str(err.value)


PROP_DOC = {"format_version": "1", "framework": "fps",
            "vars": [["p", "Prop"]], "queriable": ["a", "Prop"],
            "hypotheses": [], "conclusions": ["a"]}

# a string where a list belongs, read character by character, would be
# the hypothesis `h : p`, the conclusion `a`, the variable `x : y`
UNLISTED_DOCS = [dict(PROP_DOC, hypotheses=["hp"]),
                 dict(PROP_DOC, conclusions="a"),
                 dict(PROP_DOC, vars=["xy"])]


@pytest.mark.parametrize("doc", UNLISTED_DOCS,
                         ids=["hypothesis", "conclusions", "vars"])
def test_a_list_field_is_read_only_as_a_list(doc):
    with pytest.raises(SchemaError, match="^(malformed vars/queriable: |"
                       "malformed hypothesis entry |conclusions must be a "
                       "list, got )"):
        parse_problem(json.dumps(doc))


def test_problem_requires_conclusions():
    doc = dict(FIND_ALL_DOC, conclusions=[])
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_bad_version_rejected():
    doc = dict(FIND_ALL_DOC, format_version="2")
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_hypothesis_sort_error_reported():
    doc = dict(FIND_ALL_DOC, hypotheses=[["h", "x + 1"]])
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


# -- scripts -----------------------------------------------------------------

def test_parse_script():
    script = parse_script(
        "format_version: 1\n"
        "-- solves the problem\n"
        "@goal w exact 7\n"
        "linear_arith\n")
    assert len(script.lines) == 2
    assert script.lines[0].goal == "w"
    assert script.lines[0].tactic == "exact"
    assert script.lines[0].argtext == "7"
    assert script.lines[1].goal is None
    assert script.render() == "@goal w exact 7\nlinear_arith"


def test_script_bad_version():
    with pytest.raises(SchemaError):
        parse_script("format_version: 9\nrfl\n")


def test_all_bundled_problem_files_parse():
    from importlib import resources
    root = resources.files("holebox.data") / "problems"
    count = 0
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            parse_problem(entry.read_bytes())
            count += 1
    assert count >= 5


def test_bundled_texts_never_look_up_a_position(monkeypatch):
    # only a ParseError asks where a token is, so the lemma library, the
    # problem files and the corpus, its scripts run by both solvers,
    # parse without lexing any text twice
    from importlib import resources
    from holebox import syntax
    from holebox.bench import load_benchmark, run_benchmark
    from holebox.tactics.rewrite import load_lemma_library
    asked = []
    monkeypatch.setattr(syntax, "_position",
                        lambda src, i: asked.append(src) or (1, 0))
    root = resources.files("holebox.data")
    load_lemma_library((root / "lemmas.txt").read_text())
    for entry in (root / "problems").iterdir():
        if entry.name.endswith(".json"):
            parse_problem(entry.read_bytes())
    entries = load_benchmark(str(root / "corpus.jsonl"))
    for solver in ("script", "search"):
        run_benchmark(entries, solver=solver)
    assert asked == []
    with pytest.raises(ParseError):
        parse_term("x +")
    assert asked == ["x +"]


def _depth(t):
    return 1 + max((_depth(k) for k in children(t)), default=0)


# terms of exactly `n` levels, each shape parsed by a loop
DEEP_SHAPES = {
    "add-chain": lambda n: " + ".join(["x"] * n),
    "sub-chain": lambda n: " - ".join(["x"] * n),
    "mul-chain": lambda n: " * ".join(["x"] * n),
    "chain-in-chain": lambda n: " + ".join(
        ["(" + " * ".join(["x"] * (n - n // 2)) + ")"] + ["x"] * (n // 2)),
    "binder-names": lambda n: "forall (" + " ".join(
        f"v{i}" for i in range(n - 2)) + " : Int), x = x",
    "application": lambda n: "g " + " ".join(["x"] * (n - 1)),
}


def _curried(arity):
    s = INT
    for _ in range(arity):
        s = fn(INT, s)
    return s


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_term_depth_is_bounded(tele, shape):
    tele = tele.extended(LocalDecl("g", _curried(MAX_DEPTH - 1)))
    text = DEEP_SHAPES[shape]
    t = parse_term(text(MAX_DEPTH), tele)
    assert _depth(t) == MAX_DEPTH
    # the recursive term functions stay clear of the interpreter's
    # recursion limit at the bound, even on a term twice as deep
    twice = mk_conn("and", (t, t)) if t.sort == PROP \
        else mk_app("add", (t, t))
    twice = substitute(twice, "x", t) if t.sort == INT else twice
    print_term(twice)
    normalize(twice)
    SubtermIndex(twice)
    assert alpha_eq(twice, twice)
    with pytest.raises(ParseError, match="deeper than"):
        parse_term(text(MAX_DEPTH + 1), tele)


# a binder group is a proposition, which `add` does not take
@pytest.mark.parametrize("shape", sorted(set(DEEP_SHAPES) - {"binder-names"}))
def test_printed_terms_reread_past_the_depth_bound(tele, shape):
    tele = tele.extended(LocalDecl("g", _curried(MAX_DEPTH - 1)))
    t = parse_term(DEEP_SHAPES[shape](MAX_DEPTH), tele)
    twice = substitute(mk_app("add", (t, t)), "x", t)
    with pytest.raises(ParseError, match="deeper than"):
        parse_term(print_term(twice), tele)
    # certificates hold the goal term itself, so their check never
    # meets the bound that re-reading the printed text does
    goal = Goal("h", tele, mk_atom("eq", (twice, twice)))
    recheck(apply_tactic(SolutionState(goals=(goal,)), "h", "rfl"))
