"""Parser, checker, pretty-printer, plan numbering, and the child map."""

import importlib
import inspect
import math
import pkgutil
import sys
from dataclasses import FrozenInstanceError

import pytest

import symppl
from symppl import apply_plan, check, enumerate_plans, parse, print_program, rv_sites
from symppl import lang
from symppl.benchmarks import BENCHMARKS
from symppl.checker import plan_annotations
from symppl.lang import (
    Annotation,
    ECall,
    EConst,
    EFold,
    EFoldRest,
    EIf,
    EList,
    ELet,
    ELetK,
    ELetRV,
    EObserve,
    EOp,
    EResample,
    ETuple,
    EVar,
    Expr,
    Program,
    PVar,
    children,
    rebuild,
    walk,
)
from symppl.parser import ParseError, print_expr
from symppl.sym import DDelta, Entry, VConst


def test_minimal_let():
    prog = parse("let x = 1. in x")
    assert prog.main == ELet.__call__(prog.main.pat, EConst(1.0), EVar("x"))


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse("let x <- in")
    assert exc.value.line == 1


def test_unknown_distribution_rejected():
    with pytest.raises(ParseError):
        parse("let x <- flatten(1.) in x")


def test_roundtrip_all_models():
    for name in BENCHMARKS:
        prog = BENCHMARKS[name].program()
        assert parse(print_program(prog)) == prog, name


def test_roundtrip_annotated_plans():
    prog = apply_plan(BENCHMARKS["noise"].program(), 3)
    assert parse(print_program(prog)) == prog


def test_check_clean_on_all_models():
    for name in BENCHMARKS:
        assert check(BENCHMARKS[name].program()) == [], name


def test_check_unknown_function():
    prog = parse("let r = f(1.) in r")
    assert any("unknown function f" in d for d in check(prog))


def test_check_distribution_arity():
    prog = parse("let x <- gaussian(1.) in x")
    assert any("gaussian expects 2" in d for d in check(prog))


def test_check_map_without_arguments():
    assert check(parse("List.map()")) == ["operator map expects 2 argument(s)"]


def test_check_unbound_variable():
    assert any("unbound variable y" in d for d in check(parse("y")))


def test_check_rejects_data_outside_main():
    prog = parse("let f = fun (z) -> let n = len(data) in z + n\n"
                 "let y = f(1.) in\n"
                 "y\n")
    assert check(prog) == ["function f uses data, which is bound only in main"]
    assert check(parse("let n = len(data) in n")) == []


RESAMPLING_F = "let f = fun (a) -> let () = resample() in a\n"


@pytest.mark.parametrize("main", [
    "let y = f(1.) + 2. in y",  # operator argument
    "let y = f(f(1.)) in y",  # call argument
    "let t = (f(1.), 2.) in t",  # tuple element
    "[f(1.)]",  # list element
    "let x <- gaussian(f(1.), 1.) in x",  # distribution argument
    "observe(gaussian(0., 1.), f(1.))",  # observed value
    "if f(1.) < 0. then 1. else 2.",  # if condition
    "List.map(f, [1., 2.])",  # map of a resampling function
    "let y = (let () = resample() in 1.) + 2. in y",  # a bare resample
])
def test_check_rejects_resample_outside_sequencing_position(main):
    diags = check(parse(RESAMPLING_F + main))
    assert len(diags) == 1 and "outside a sequencing position" in diags[0], diags


def test_check_accepts_resample_in_sequencing_positions():
    src = RESAMPLING_F + """let g = fun (a) -> if a < 0. then f(a) else let () = resample() in a
let step = fun (z, acc) -> g(acc + z)
let y = f(1.) in
let x <- gaussian(y, 1.) in
let z = fold(step, data, x) in
if z < 0. then g(z) else z
"""
    assert check(parse(src)) == []


def test_fold_resample_sugar():
    src = """
let step = fun (z, acc) -> acc + z
let r = fold_resample(step, data, 0.) in
r
"""
    prog = parse(src)
    wrapper = prog.functions[-1]
    assert wrapper.name == "__step_resample"
    printed = print_program(prog)
    assert "resample()" in printed
    assert parse(printed) == prog


def test_plan_enumeration_counts():
    prog = parse("let x = 1. in x")
    assert len(enumerate_plans(prog)) == 1
    noise = BENCHMARKS["noise"].program()
    plans = enumerate_plans(noise)
    assert len(plans) == 8
    assert len({print_program(p) for p in plans}) == 8


def test_plan_numbering_noise():
    noise = BENCHMARKS["noise"].program()
    assert [s.name for s in rv_sites(noise)] == ["x", "q", "r"]
    assert plan_annotations(noise, 7) == {
        "x": Annotation.SAMPLE, "q": Annotation.SAMPLE, "r": Annotation.SAMPLE,
    }
    assert plan_annotations(noise, 3) == {
        "x": Annotation.SYMBOLIC, "q": Annotation.SAMPLE, "r": Annotation.SAMPLE,
    }
    assert plan_annotations(noise, 0) == {
        "x": Annotation.SYMBOLIC, "q": Annotation.SYMBOLIC, "r": Annotation.SYMBOLIC,
    }


def test_plan_numbering_tree():
    tree = BENCHMARKS["tree"].program()
    assert [s.name for s in rv_sites(tree)] == ["b", "a"]
    # site order is source order: b is declared inside step, before a
    assert plan_annotations(tree, 1) == {"b": Annotation.SYMBOLIC, "a": Annotation.SAMPLE}
    assert plan_annotations(tree, 2) == {"b": Annotation.SAMPLE, "a": Annotation.SYMBOLIC}


def test_plan_numbering_slds():
    slds = BENCHMARKS["slds"].program()
    names = [s.name for s in rv_sites(slds)]
    assert names == ["s", "x1", "x0", "trans_prob0", "trans_prob1", "obs_noise0", "obs_noise1"]
    assert plan_annotations(slds, 81) == {
        "s": Annotation.SAMPLE,
        "x1": Annotation.SYMBOLIC,
        "x0": Annotation.SAMPLE,
        "trans_prob0": Annotation.SYMBOLIC,
        "trans_prob1": Annotation.SYMBOLIC,
        "obs_noise0": Annotation.SYMBOLIC,
        "obs_noise1": Annotation.SAMPLE,
    }


def test_plan_guard():
    prog = parse("let x = 1. in x")
    with pytest.raises(ValueError):
        apply_plan(prog, 1)


def test_comments_and_nesting():
    prog = parse("(* a (* nested *) comment *) let x = 1. in x")
    assert isinstance(prog.main, ELet)


def test_map_counts_as_a_call_for_purity():
    from symppl.checker import impure_functions, is_pure

    prog = parse("let f = fun z -> let () = observe(gaussian(0., 1.), z) in z\n"
                 "let g = fun l -> List.map(f, l)\n"
                 "List.map(f, [1.])")
    impure = impure_functions(prog)
    assert impure == {"f", "__map_f", "g"}
    assert not is_pure(prog.main, impure)


# --- the one child map of expressions ---


def one_of_each_form():
    """One expression of every form, keyed by class, over leaf children."""
    a, b, c = EVar("a"), EConst(1.0), EVar("c")
    return {
        EConst: EConst(2.0),
        EVar: EVar("v"),
        ETuple: ETuple((a, b)),
        EList: EList((a, b, c)),
        EOp: EOp("+", (a, c)),
        ECall: ECall("f", a),
        EIf: EIf(a, b, c),
        ELet: ELet(PVar("x"), a, c),
        ELetRV: ELetRV(Annotation.NONE, "x", "gaussian", (a, b), c, site=0),
        EObserve: EObserve("gaussian", (a, b), c),
        EResample: EResample(site=0),
        EFold: EFold("f", a, c),
        EFoldRest: EFoldRest("f", (VConst(1.0),), 0, a),
        ELetK: ELetK(PVar("x"), a, c, {"c": VConst(4.0)}),
    }


def test_child_map_covers_every_form():
    forms = one_of_each_form()
    # a new form must join the map; ``immutable`` leaves its unslotted
    # first version among the subclasses, so count what the modules define
    defined = {cls for cls in Expr.__subclasses__()
               if getattr(sys.modules[cls.__module__], cls.__name__) is cls}
    assert set(forms) == defined
    for e in forms.values():
        kids = children(e)
        assert rebuild(e, kids) == e
        fresh = tuple(EConst(float(i)) for i in range(len(kids)))
        assert children(rebuild(e, fresh)) == fresh
        assert list(walk(e)) == [e, *kids]


def test_walk_is_pre_order():
    e = parse("if x < 2. then (b, [c]) else f(a)").main
    assert [print_expr(x) for x in walk(e)] == [
        "if (x < 2.0) then (b, [c]) else f(a)", "(x < 2.0)", "x", "2.0",
        "(b, [c])", "b", "[c]", "c", "f(a)", "a"]


def replace(obj, /, **changes):
    """``obj`` with the fields named in ``changes`` set to new values."""
    return type(obj)(**{f: getattr(obj, f) for f in obj.__match_args__} | changes)


def test_apply_plan_rewrites_a_site_nested_in_every_form():
    site = ELetRV(Annotation.NONE, "s", "gaussian", (EConst(0.0), EConst(1.0)), EVar("s"),
                  site=1)
    for e in one_of_each_form().values():
        kids = children(e)
        for i in range(len(kids)):
            prog = Program((), rebuild(e, kids[:i] + (site,) + kids[i + 1:]))
            k = len(rv_sites(prog))  # the form itself may be a site too
            for plan, ann in ((0, Annotation.SYMBOLIC), (2**k - 1, Annotation.SAMPLE)):
                outer = replace(e, annotation=ann) if isinstance(e, ELetRV) else e
                expected = rebuild(outer, kids[:i] + (replace(site, annotation=ann),)
                                   + kids[i + 1:])
                assert apply_plan(prog, plan).main == expected


def frozen_classes():
    """Every class the package declares with ``lang.immutable``."""
    out = []
    for info in pkgutil.iter_modules(symppl.__path__):
        module = importlib.import_module(f"symppl.{info.name}")
        out += [cls for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and vars(cls).get("__setattr__") is lang._frozen]
    return out


FROZEN = frozen_classes()

# The fields that equality and hashing ignore, and the declared defaults.
NOT_COMPARED = {"ELetRV": {"site"}, "EResample": {"site"}, "Entry": {"label"}}
DEFAULTS = {
    "ELetRV": {"site": -1},
    "EResample": {"site": -1},
    "Entry": {"node": None, "label": ""},
    "Verdict": {"witnesses": (), "elapsed_ms": 0.0},
    "BenchmarkSpec": {"bool_columns": ()},
    "Mixture": {"log_evidence": math.nan},
}


def test_every_node_class_is_found():
    names = {cls.__name__ for cls in FROZEN}
    assert {"EConst", "ELetRV", "VConst", "VAdd", "DNormal", "DSampledDelta", "Entry",
            "MargN", "RealizedN", "AEUnk", "ALst", "ATopN", "Token", "Verdict",
            "Mixture"} <= names
    assert len(FROZEN) == len(names) == 56


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_immutable_constructor_contract(cls):
    params = inspect.signature(cls).parameters
    names = tuple(params)
    assert cls.__match_args__ == names
    ignored = NOT_COMPARED.get(cls.__name__, set())
    # hashable stand-ins, fresh per call: nothing checks the fields' types
    args = [frozenset({i}) for i in range(len(names))]
    node = cls(*args)
    assert all(getattr(node, f) is a for f, a in zip(names, args))
    assert cls(**dict(zip(names, args))) == node
    twin = cls(*[frozenset(a) for a in args])
    assert twin == node and hash(twin) == hash(node)
    assert hash(node) == hash(tuple(a for f, a in zip(names, args) if f not in ignored))
    assert node.__eq__(object()) is NotImplemented
    assert repr(node) == f"{cls.__name__}({', '.join(f'{f}={a!r}' for f, a in zip(names, args))})"
    for i, f in enumerate(names):
        with pytest.raises(FrozenInstanceError):
            setattr(node, f, None)
        with pytest.raises(FrozenInstanceError):
            delattr(node, f)
        other = cls(*args[:i], frozenset({-1}), *args[i + 1:])
        assert (other == node) is (f in ignored)
    with pytest.raises(FrozenInstanceError):
        node.extra = 1
    with pytest.raises(FrozenInstanceError):
        del node.extra
    defaults = {f: p.default for f, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls.__name__, {})
    defaulted = cls(*args[:len(names) - len(defaults)])
    assert all(getattr(defaulted, f) is d for f, d in defaults.items())


def test_immutable_defaults_and_keywords():
    d = DDelta(VConst(1.0))
    e = Entry(Annotation.NONE, d, label="x#0")
    assert (e.node, e.label) == (None, "x#0")
    assert e == Entry(Annotation.NONE, d) and hash(e) == hash(Entry(Annotation.NONE, d))
    assert ELetRV(Annotation.NONE, "x", "delta", (), EVar("x")).site == -1
    assert replace(e, node=1) == Entry(Annotation.NONE, d, 1)
