"""Parser, checker, pretty-printer, and plan numbering."""

import pytest

from symppl import apply_plan, check, enumerate_plans, parse, print_program, rv_sites
from symppl.benchmarks import BENCHMARKS
from symppl.checker import plan_annotations
from symppl.lang import Annotation, EConst, ELet, EVar
from symppl.parser import ParseError


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
    assert impure == {"f", "g"}
    assert not is_pure(prog.main, impure)
