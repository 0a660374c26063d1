"""Tokenizer and recursive-descent parser for ``.si`` sources.

Surface syntax is ML-flavoured: ``let``/``in``, ``<-`` for random-variable
bindings, ``fun (pat) ->`` for top-level declarations, and ``(* ... *)``
comments.  Two forms are sugar for a fold over a generated step function,
declared right after the function it wraps (at the end when that one is
undeclared, so ``check`` reports it), so every rule and loop for folds
covers them:

- ``fold_resample(f, l, a)`` folds ``__f_resample``: ``f``, then ``resample()``;
- ``List.map(f, l)`` is ``rev(fold(__map_f, l, []))``: ``__map_f`` conses
  ``f`` of each element onto the accumulator.  A map whose arguments are
  not a bare name and one more stays an ``EOp`` for ``check`` to reject.
"""

from __future__ import annotations

import re

from .lang import (
    BUILTIN_ARITIES,
    Annotation,
    EConst,
    ECall,
    EFold,
    EIf,
    EList,
    ELet,
    ELetRV,
    EObserve,
    EOp,
    EResample,
    ETuple,
    EVar,
    Expr,
    FunDecl,
    Pattern,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Program,
    immutable,
)
from .sym import DIST_ARITIES


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@immutable
class Token:
    kind: str
    text: str
    line: int
    col: int


KEYWORDS = {
    "let", "in", "fun", "if", "then", "else", "true", "false",
    "fold", "fold_resample", "observe", "resample", "symbolic", "sample",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\(\*)
    | (?P<number>\d+\.\d*|\.\d+|\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?)
    | (?P<op><-|->|<=|!=|=|<|\+|-|\*|/|\(|\)|\[|\]|,)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line, col = 1, 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup == "comment":
            depth, end = 1, m.end()
            while depth > 0:
                nxt = source.find("*)", end)
                opn = source.find("(*", end)
                if nxt == -1:
                    raise ParseError("unterminated comment", line, col)
                if opn != -1 and opn < nxt:
                    depth += 1
                    end = opn + 2
                else:
                    depth -= 1
                    end = nxt + 2
            text = source[pos:end]
        elif m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.rv_site = 0
        self.resample_site = 0
        # generated step functions, in order of first use: name -> (base, kind)
        self.wrappers: dict[str, tuple[str, str]] = {}

    def peek(self, k: int = 0) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # --- program structure ---

    def parse_program(self) -> Program:
        functions: list[FunDecl] = []
        while self._at_fun_decl():
            functions.append(self.parse_fun_decl())
        main = self.parse_expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
        after: dict[str, list[FunDecl]] = {}  # base -> the wrappers declared after it
        for name, (base, kind) in self.wrappers.items():
            if kind == "map":
                body = ELet(PVar("__y"), ECall(base, EVar("__el")),
                            EOp("cons", (EVar("__y"), EVar("__ac"))))
            else:
                body = ELet(PVar("__acc"), ECall(base, ETuple((EVar("__el"), EVar("__ac")))),
                            ELet(PUnit(), self._resample(), EVar("__acc")))
            after.setdefault(base, []).append(
                FunDecl(name, PTuple((PVar("__el"), PVar("__ac"))), body))
        decls: list[FunDecl] = []
        for f in functions:
            decls += [f, *after.pop(f.name, ())]
        decls += [w for ws in after.values() for w in ws]
        return Program(tuple(decls), main)

    def _at_fun_decl(self) -> bool:
        return (
            self.peek().text == "let"
            and self.peek(1).kind == "ident"
            and self.peek(2).text == "="
            and self.peek(3).text == "fun"
        )

    def parse_fun_decl(self) -> FunDecl:
        self.expect("let")
        name = self.next().text
        self.expect("=")
        self.expect("fun")
        pat = self.parse_pattern()
        self.expect("->")
        body = self.parse_expr()
        return FunDecl(name, pat, body)

    # --- patterns ---

    def parse_pattern(self) -> Pattern:
        items = [self.parse_pattern_atom()]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_pattern_atom())
        return items[0] if len(items) == 1 else PTuple(tuple(items))

    def parse_pattern_atom(self) -> Pattern:
        t = self.peek()
        if t.text == "(":
            self.next()
            if self.peek().text == ")":
                self.next()
                return PUnit()
            inner = self.parse_pattern()
            self.expect(")")
            return inner
        if t.text == "_":
            self.next()
            return PWild()
        if t.kind == "ident":
            self.next()
            return PVar(t.text)
        raise self.error(f"expected pattern, found {t.text!r}")

    # --- expressions ---

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.text == "let":
            return self.parse_let()
        if t.text == "if":
            return self.parse_if()
        return self.parse_tuple()

    def parse_let(self) -> Expr:
        self.expect("let")
        if self.peek().text in ("symbolic", "sample") and self.peek(2).text == "<-":
            ann = Annotation.SYMBOLIC if self.next().text == "symbolic" else Annotation.SAMPLE
            return self.parse_letrv(ann)
        if self.peek(1).text == "<-":
            return self.parse_letrv(Annotation.NONE)
        pat = self.parse_pattern()
        self.expect("=")
        bound = self.parse_expr()
        self.expect("in")
        body = self.parse_expr()
        return ELet(pat, bound, body)

    def parse_letrv(self, ann: Annotation) -> Expr:
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise ParseError(f"expected variable name, found {name_tok.text!r}", name_tok.line, name_tok.col)
        self.expect("<-")
        dist_tok = self.next()
        dist = dist_tok.text
        if dist not in DIST_ARITIES:
            raise ParseError(f"unknown distribution {dist!r}", dist_tok.line, dist_tok.col)
        self.expect("(")
        args = self.parse_args()
        self.expect(")")
        self.expect("in")
        site = self.rv_site
        self.rv_site += 1
        body = self.parse_expr()
        return ELetRV(ann, name_tok.text, dist, tuple(args), body, site=site)

    def parse_if(self) -> Expr:
        self.expect("if")
        cond = self.parse_expr()
        self.expect("then")
        then = self.parse_expr()
        self.expect("else")
        orelse = self.parse_expr()
        return EIf(cond, then, orelse)

    def parse_tuple(self) -> Expr:
        items = [self.parse_cmp()]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_cmp())
        return items[0] if len(items) == 1 else ETuple(tuple(items))

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        t = self.peek().text
        if t in ("<", "<=", "=", "!="):
            self.next()
            right = self.parse_add()
            return EOp(t, (left, right))
        return left

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = EOp(op, (e, self.parse_mul()))
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = EOp(op, (e, self.parse_unary()))
        return e

    def parse_unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, EConst) and isinstance(inner.value, float):
                return EConst(-inner.value)
            return EOp("-", (EConst(0.0), inner))
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        t = self.next()
        if t.kind == "number":
            return EConst(float(t.text))
        if t.text == "true":
            return EConst(True)
        if t.text == "false":
            return EConst(False)
        if t.text == "(":
            if self.peek().text == ")":
                self.next()
                return EConst(None)
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.text == "[":
            items: list[Expr] = []
            if self.peek().text != "]":
                items.append(self.parse_cmp())
                while self.peek().text == ",":
                    self.next()
                    items.append(self.parse_cmp())
            self.expect("]")
            return EList(tuple(items))
        if t.text == "resample":
            self.expect("(")
            self.expect(")")
            return self._resample()
        if t.text == "observe":
            self.expect("(")
            dist_tok = self.next()
            if dist_tok.text not in DIST_ARITIES:
                raise ParseError(
                    f"observe requires a distribution, found {dist_tok.text!r}", dist_tok.line, dist_tok.col
                )
            self.expect("(")
            args = self.parse_args()
            self.expect(")")
            self.expect(",")
            value = self.parse_cmp()
            self.expect(")")
            return EObserve(dist_tok.text, tuple(args), value)
        if t.text in ("fold", "fold_resample"):
            self.expect("(")
            func_tok = self.next()
            func = func_tok.text
            self.expect(",")
            lst = self.parse_cmp()
            self.expect(",")
            init = self.parse_cmp()
            self.expect(")")
            if t.text == "fold_resample":
                func = self._wrapper(f"__{func}_resample", func, "resample")
            return EFold(func, lst, init)
        if t.kind == "ident":
            name = t.text
            if name.startswith("List."):
                name = name[len("List."):]
            if self.peek().text == "(":
                self.next()
                args = self.parse_args()
                self.expect(")")
                if name in DIST_ARITIES:
                    raise ParseError(
                        f"distribution {name!r} may only appear in a random-variable binding or observe",
                        t.line, t.col,
                    )
                if name == "map" and len(args) == 2 and isinstance(args[0], EVar):
                    wrapper = self._wrapper(f"__map_{args[0].name}", args[0].name, "map")
                    return EOp("rev", (EFold(wrapper, args[1], EList(())),))
                if name in BUILTIN_ARITIES:
                    return EOp(name, tuple(args))
                arg = args[0] if len(args) == 1 else ETuple(tuple(args))
                return ECall(name, arg)
            return EVar(t.text)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def parse_arg(self) -> Expr:
        if self.peek().text == "if":
            return self.parse_if()
        if self.peek().text == "let":
            return self.parse_let()
        return self.parse_cmp()

    def parse_args(self) -> list[Expr]:
        args: list[Expr] = []
        if self.peek().text == ")":
            return args
        args.append(self.parse_arg())
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_arg())
        return args

    def _wrapper(self, name: str, base: str, kind: str) -> str:
        self.wrappers.setdefault(name, (base, kind))
        return name

    def _resample(self) -> EResample:
        site = self.resample_site
        self.resample_site += 1
        return EResample(site=site)


def parse(source: str) -> Program:
    """Parse a program from source text.  A program nested deeper than the
    recursive descent can follow is a ``ParseError`` at the token where
    the descent stopped."""
    parser = _Parser(tokenize(source))
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None


# --- pretty printer ---


def print_pattern(p: Pattern) -> str:
    match p:
        case PVar(name):
            return name
        case PWild():
            return "_"
        case PUnit():
            return "()"
        case PTuple(items):
            return "(" + ", ".join(print_pattern(q) for q in items) + ")"
    raise TypeError(p)


def _const_str(v: float | bool | None) -> str:
    if v is None:
        return "()"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return repr(v)


def print_expr(e: Expr) -> str:
    match e:
        case EConst(v):
            return _const_str(v)
        case EVar(name):
            return name
        case ETuple(items):
            return "(" + ", ".join(print_expr(x) for x in items) + ")"
        case EList(items):
            return "[" + ", ".join(print_expr(x) for x in items) + "]"
        case EOp(op, args):
            if op in ("+", "-", "*", "/", "<", "<=", "=", "!="):
                return f"({print_expr(args[0])} {op} {print_expr(args[1])})"
            return f"{op}(" + ", ".join(print_expr(x) for x in args) + ")"
        case ECall(func, ETuple(items)):
            return f"{func}(" + ", ".join(print_expr(x) for x in items) + ")"
        case ECall(func, arg):
            return f"{func}({print_expr(arg)})"
        case EIf(c, t, o):
            return f"if {print_expr(c)} then {print_expr(t)} else {print_expr(o)}"
        case ELet(pat, bound, body):
            return f"let {print_pattern(pat)} = {print_expr(bound)} in\n{print_expr(body)}"
        case ELetRV(ann, name, dist, args, body):
            a = f"{ann} " if ann is not Annotation.NONE else ""
            argstr = ", ".join(print_expr(x) for x in args)
            return f"let {a}{name} <- {dist}({argstr}) in\n{print_expr(body)}"
        case EObserve(dist, args, value):
            argstr = ", ".join(print_expr(x) for x in args)
            return f"observe({dist}({argstr}), {print_expr(value)})"
        case EResample():
            return "resample()"
        case EFold(func, lst, init):
            return f"fold({func}, {print_expr(lst)}, {print_expr(init)})"
    raise TypeError(e)


def print_program(p: Program) -> str:
    parts = [f"let {f.name} = fun {print_pattern(f.param)} ->\n{print_expr(f.body)}" for f in p.functions]
    parts.append(print_expr(p.main))
    return "\n".join(parts) + "\n"
