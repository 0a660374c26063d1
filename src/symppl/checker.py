"""Static well-formedness checks and annotation-plan enumeration."""

from __future__ import annotations

from .lang import (
    BUILTIN_ARITIES,
    Annotation,
    ECall,
    EFold,
    EIf,
    ELet,
    ELetRV,
    EObserve,
    EOp,
    EResample,
    EVar,
    Expr,
    FunDecl,
    Program,
    children,
    pattern_vars,
    rebuild,
    walk,
)
from .sym import DIST_ARITIES

INFIX_OPS = {"+", "-", "*", "/", "<", "<=", "=", "!="}

MAX_PLAN_SITES = 20


def check(program: Program) -> list[str]:
    """Return diagnostics for scoping, arity, and recursion problems.

    An empty list means the program is well-formed.
    """
    diags: list[str] = []
    fun_names: list[str] = []
    for f in program.functions:
        if f.name in fun_names:
            diags.append(f"duplicate function {f.name}")
        fun_names.append(f.name)

    def check_expr(e: Expr, scope: set[str], current: str | None) -> None:
        kids = children(e)
        match e:
            case EVar(name):
                if name not in scope and name != "data":
                    diags.append(f"unbound variable {name}")
                elif name not in scope and current is not None:
                    diags.append(f"function {current} uses data, which is bound only in main")
            case EOp(op, args):
                if op in INFIX_OPS:
                    if len(args) != 2:
                        diags.append(f"operator {op} expects 2 arguments")
                elif op in BUILTIN_ARITIES:
                    if len(args) != BUILTIN_ARITIES[op]:
                        diags.append(f"operator {op} expects {BUILTIN_ARITIES[op]} argument(s)")
                else:
                    diags.append(f"unknown operator {op}")
                if op == "map" and args:
                    fn = args[0]
                    if not (isinstance(fn, EVar) and fn.name in fun_names):
                        diags.append("map expects a declared function name")
                    kids = args[1:]
            case ECall(func, _) | EFold(func, _, _):
                verb = "call" if isinstance(e, ECall) else "fold over"
                if func not in fun_names:
                    diags.append(f"unknown function {func}")
                elif current is not None and fun_names.index(func) >= fun_names.index(current):
                    diags.append(f"function {current} may not {verb} {func} (no recursion)")
            case ELet(pat, bound, body):
                check_expr(bound, scope, current)
                kids, scope = (body,), scope | set(pattern_vars(pat))
            case ELetRV(_, _, dist, args, _) | EObserve(dist, args, _):
                if len(args) != DIST_ARITIES[dist]:
                    diags.append(f"distribution {dist} expects {DIST_ARITIES[dist]} argument(s)")
                if isinstance(e, ELetRV):
                    for x in args:
                        check_expr(x, scope, current)
                    kids, scope = (e.body,), scope | {e.name}
        for x in kids:
            check_expr(x, scope, current)

    for f in program.functions:
        check_expr(f.body, set(pattern_vars(f.param)), f.name)
    check_expr(program.main, set(), None)
    resampling = _resampling_functions(program)
    for body in [f.body for f in program.functions] + [program.main]:
        _check_resample_positions(body, resampling, diags)
    return diags


def _resamples_at(e: Expr, resampling: set[str]) -> str | None:
    """What, in node ``e`` itself, can resample."""
    match e:
        case EResample():
            return "resample"
        case ECall(func, _) | EFold(func, _, _) if func in resampling:
            return f"call of {func}, which can resample,"
        case EOp("map", (EVar(func), _)) if func in resampling:
            return f"map of {func}, which can resample,"
    return None


def _resampling_functions(program: Program) -> set[str]:
    """Names of functions whose bodies can resample (transitively)."""
    out: set[str] = set()
    for f in program.functions:  # declaration order; callees precede callers
        if any(_resamples_at(x, out) for x in walk(f.body)):
            out.add(f.name)
    return out


def _check_resample_positions(e: Expr, resampling: set[str], diags: list[str]) -> None:
    """A particle can pause at a resample only in a sequencing position: a
    function body or ``main``, a ``let``'s bound or body, a random
    variable's body, or an ``if`` branch.  Elsewhere the pause would be
    lost, so a resample there is an error."""
    match e:
        case ELet(_, bound, body):
            seq, off = [bound, body], []
        case ELetRV(_, _, _, args, body):
            seq, off = [body], list(args)
        case EIf(c, t, o):
            seq, off = [t, o], [c]
        case ECall(_, arg):
            seq, off = [], [arg]
        case EFold(_, lst, init):
            seq, off = [], [lst, init]
        case EResample():
            seq, off = [], []
        case _:
            seq, off = [], [e]
    for x in off:
        for y in walk(x):
            what = _resamples_at(y, resampling)
            if what is not None:
                diags.append(f"{what} outside a sequencing position")
    for x in seq:
        _check_resample_positions(x, resampling, diags)


def impure_functions(program: Program) -> set[str]:
    """Names of functions whose bodies observe or resample (transitively)."""
    impure: set[str] = set()
    for f in program.functions:  # declaration order; callees precede callers
        if not is_pure(f.body, impure):
            impure.add(f.name)
    return impure


def is_pure(e: Expr, impure: set[str]) -> bool:
    for x in walk(e):
        match x:
            case EObserve(_, _, _) | EResample():
                return False
            case ECall(func, _) | EFold(func, _, _) | EOp("map", (EVar(func), _)):
                if func in impure:
                    return False
            case _:
                pass
    return True


def rv_sites(program: Program) -> list[ELetRV]:
    """Random-variable declaration sites in source order."""
    bodies = [f.body for f in program.functions] + [program.main]
    sites = [e for body in bodies for e in walk(body) if isinstance(e, ELetRV)]
    return sorted(sites, key=lambda s: s.site)


def _plan_sites(program: Program, plan: int) -> list[tuple[ELetRV, Annotation]]:
    """Each site, in source order, with the annotation a plan index gives it.

    The plan index read as a big-endian bit vector assigns SYMBOLIC to
    0-bits and SAMPLE to 1-bits; an index out of range is a ``ValueError``.
    """
    sites = rv_sites(program)
    k = len(sites)
    if not 0 <= plan < 2**k:
        raise ValueError(f"plan {plan} out of range for {k} sites")
    return [(s, Annotation.SAMPLE if (plan >> (k - 1 - j)) & 1 else Annotation.SYMBOLIC)
            for j, s in enumerate(sites)]


def apply_plan(program: Program, plan: int) -> Program:
    """Overwrite every annotation according to a plan index."""
    by_site = {s.site: ann for s, ann in _plan_sites(program, plan)}

    def rewrite(e: Expr) -> Expr:
        kids = tuple(map(rewrite, children(e)))
        if isinstance(e, ELetRV):
            return ELetRV(by_site[e.site], e.name, e.dist, kids[:-1], kids[-1], site=e.site)
        return rebuild(e, kids)

    functions = tuple(FunDecl(f.name, f.param, rewrite(f.body)) for f in program.functions)
    return Program(functions, rewrite(program.main))


def plan_annotations(program: Program, plan: int) -> dict[str, Annotation]:
    """Annotation per site variable name for a plan index (diagnostics)."""
    return {s.name: ann for s, ann in _plan_sites(program, plan)}


def enumerate_plans(program: Program) -> list[Program]:
    """All 2^k overwritten-annotation variants of a program, by plan index."""
    k = len(rv_sites(program))
    if k > MAX_PLAN_SITES:
        raise ValueError(f"refusing to enumerate 2^{k} plans")
    return [apply_plan(program, plan) for plan in range(2**k)]
