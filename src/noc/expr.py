"""Tiny arithmetic expression language used by problem files.

Supports + - * / ^ (right-associative power), unary minus, parentheses,
numeric literals, named variables, and the functions sin, cos, tan, exp,
log, sqrt, abs. Expressions differentiate symbolically, so problems defined
in text files get analytic first and second derivatives.

This module alone decides how an expression becomes numpy code:
``compile_expr`` gives one scalar expression as a callable, and
``_compile_blocks`` gives every vector- or matrix-valued quantity of an
expression object (a dynamics rhs and its derivative blocks, the
gradients and Hessians of endpoint maps and op rows, a chart metric and
its derivatives) as one generated function. ``Expr.eval`` walks the tree
against a dict of values; it is the reference evaluator the compiled code
is tested against, and no checker path calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ExprError", "compile_expr", "parse_expr", "python_source"]


class ExprError(ValueError):
    """Syntax or validation error in an expression, with column info."""

    def __init__(self, message: str, col: int | None = None):
        super().__init__(message if col is None else f"{message} (column {col})")
        self.col = col


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


# ----------------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes. Nodes are immutable and picklable."""

    def eval(self, env: dict) -> float:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def free_vars(self):
        return frozenset()

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExprError(f"unknown variable {self.name!r}") from None

    def diff(self, var):
        return Num(1.0 if var == self.name else 0.0)

    def free_vars(self):
        return frozenset({self.name})

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, env):
        return -self.arg.eval(env)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def free_vars(self):
        return self.arg.free_vars()

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)

    def diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) - self.right.eval(env)

    def diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) * self.right.eval(env)

    def diff(self, var):
        return _add(_mul(self.left.diff(var), self.right),
                    _mul(self.left, self.right.diff(var)))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def eval(self, env):
        return self.left.eval(env) / self.right.eval(env)

    def diff(self, var):
        # (u/v)' = u'/v - u v'/v^2
        du = self.left.diff(var)
        dv = self.right.diff(var)
        return _sub(_div(du, self.right),
                    _div(_mul(self.left, dv), _mul(self.right, self.right)))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self):
        return f"({self.left} / {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr

    def eval(self, env):
        return self.base.eval(env) ** self.exponent.eval(env)

    def diff(self, var):
        db = self.base.diff(var)
        de = self.exponent.diff(var)
        if var not in self.exponent.free_vars():
            # exponent constant in var (a number or a parameter): n b^(n-1) b'
            n = self.exponent
            return _mul(_mul(n, _pow(self.base, _sub(n, Num(1.0)))), db)
        # general case: b^e * (e' log b + e b'/b)
        return _mul(self, _add(_mul(de, Call("log", self.base)),
                               _div(_mul(self.exponent, db), self.base)))

    def free_vars(self):
        return self.base.free_vars() | self.exponent.free_vars()

    def __str__(self):
        return f"({self.base} ^ {self.exponent})"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def eval(self, env):
        return _FUNCTIONS[self.func](self.arg.eval(env))

    def diff(self, var):
        da = self.arg.diff(var)
        a = self.arg
        if self.func == "sin":
            outer = Call("cos", a)
        elif self.func == "cos":
            outer = _neg(Call("sin", a))
        elif self.func == "tan":
            outer = _div(Num(1.0), _pow(Call("cos", a), Num(2.0)))
        elif self.func == "exp":
            outer = self
        elif self.func == "log":
            outer = _div(Num(1.0), a)
        elif self.func == "sqrt":
            outer = _div(Num(0.5), self)
        elif self.func == "abs":
            # subgradient choice sign(a); not differentiable at 0
            outer = _div(a, self)
        else:  # pragma: no cover - parser only admits known names
            raise ExprError(f"cannot differentiate function {self.func!r}")
        return _mul(outer, da)

    def free_vars(self):
        return self.arg.free_vars()

    def __str__(self):
        return f"{self.func}({self.arg})"


# ----------------------------------------------------------------------------
# simplifying constructors (constant folding + unit/zero elimination)
# ----------------------------------------------------------------------------

def _is_num(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Num):
        return False
    return value is None or e.value == value


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return _neg(b)
    if _is_num(b, -1.0):
        return _neg(a)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        return Num(a.value ** b.value)
    return Pow(a, b)


# ----------------------------------------------------------------------------
# tokenizer + recursive-descent parser
# ----------------------------------------------------------------------------

_OPERATORS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, column) tuples; kind in {num, name, op}."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_exp = False
            while j < n:
                ch = text[j]
                if ch.isdigit() or ch == ".":
                    j += 1
                elif ch in "eE" and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_exp = True
                    j += 2
                elif seen_exp and ch.isdigit():
                    j += 1
                else:
                    break
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ExprError(f"bad numeric literal {lit!r}", i) from None
            tokens.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.take()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}, found {value!r}", col)

    # grammar: expr := term (('+'|'-') term)*
    #          term := factor (('*'|'/') factor)*
    #          factor := '-' factor | '+' factor | power
    #          power := atom ('^' factor)?          (right assoc; binds above unary -)
    #          atom := num | name | name '(' expr ')' | '(' expr ')'
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.parse_term()
                node = _add(node, rhs) if value == "+" else _sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.parse_factor()
                node = _mul(node, rhs) if value == "*" else _div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return _neg(self.parse_factor())
        if kind == "op" and value == "+":
            self.take()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return _pow(base, self.parse_factor())
        return base

    def parse_atom(self) -> Expr:
        kind, value, col = self.take()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in _FUNCTIONS:
                    raise ExprError(f"unknown function {value!r}", col)
                self.take()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {value!r}", col)


def parse_expr(text: str, allowed_vars: set[str] | frozenset[str] | None = None) -> Expr:
    """Parse ``text`` into an Expr; optionally validate its variable set.

    math.pi is available as the name ``pi``, unless ``pi`` is one of the
    ``allowed_vars`` (a parameter of that name shadows the constant).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    parser = _Parser(tokens, text)
    node = parser.parse_expr()
    kind, value, col = parser.peek()
    if kind != "end":
        raise ExprError(f"trailing input starting at {value!r}", col)
    if allowed_vars is None or "pi" not in allowed_vars:
        node = _substitute_constants(node)
    if allowed_vars is not None:
        extra = node.free_vars() - set(allowed_vars)
        if extra:
            raise ExprError("unknown variable(s): " + ", ".join(sorted(extra)))
    return node


def _substitute_constants(node: Expr) -> Expr:
    if isinstance(node, Var) and node.name == "pi":
        return Num(math.pi)
    if isinstance(node, Neg):
        return _neg(_substitute_constants(node.arg))
    if isinstance(node, Add):
        return _add(_substitute_constants(node.left), _substitute_constants(node.right))
    if isinstance(node, Sub):
        return _sub(_substitute_constants(node.left), _substitute_constants(node.right))
    if isinstance(node, Mul):
        return _mul(_substitute_constants(node.left), _substitute_constants(node.right))
    if isinstance(node, Div):
        return _div(_substitute_constants(node.left), _substitute_constants(node.right))
    if isinstance(node, Pow):
        return _pow(_substitute_constants(node.base), _substitute_constants(node.exponent))
    if isinstance(node, Call):
        return Call(node.func, _substitute_constants(node.arg))
    return node


# ----------------------------------------------------------------------------
# compilation to plain python callables (hot integrator loops)
# ----------------------------------------------------------------------------

def _finite(x):
    """x when it is finite; otherwise FloatingPointError (see
    ``python_source``: the guard of ``math`` source)."""
    if x - x == 0.0:
        return x
    raise FloatingPointError("non-finite intermediate in math-mode source")


def python_source(node: Expr, module: str = "np", names=None) -> str:
    """Emit a python expression string equivalent to ``node``.

    Functions come from ``module``: ``"np"`` (numpy, broadcasts over arrays)
    or ``"math"`` (Python floats; raises where numpy would warn). Each
    variable is emitted as ``names[var]`` when a mapping is given, else as
    its own name.

    Python float products overflow to inf without raising, and a few
    operations turn an infinite (or NaN) operand back into a finite value,
    where numpy would have warned on the way: x / inf, inf ** (negative),
    (|b| < 1) ** inf and exp(-inf). ``math`` source therefore wraps exactly
    those operands in ``_finite``, which raises FloatingPointError on a
    non-finite value: a divisor, the base of a power with a negative
    literal exponent, both sides of a power with a non-literal exponent,
    and the argument of exp, unless the operand is a literal. ``math``
    source is evaluated with ``math`` and this module's ``_finite`` in its
    namespace; a source without such an operand never calls ``_finite``.
    """
    def guarded(e: Expr) -> str:
        if module != "math" or isinstance(e, Num):
            return src(e)
        return f"_finite({src(e)})"

    def src(e: Expr) -> str:
        if isinstance(e, Num):
            if math.isfinite(e.value):
                return repr(e.value)
            # constant folding can overflow to inf or nan, which are not literals
            name = "nan" if math.isnan(e.value) else "inf"
            return f"({'-' if e.value < 0 else ''}{module}.{name})"
        if isinstance(e, Var):
            if names is None:
                return e.name
            if e.name not in names:
                raise ExprError(f"unbound variable {e.name!r}")
            return names[e.name]
        if isinstance(e, Neg):
            return f"(-{src(e.arg)})"
        if isinstance(e, Add):
            return f"({src(e.left)} + {src(e.right)})"
        if isinstance(e, Sub):
            return f"({src(e.left)} - {src(e.right)})"
        if isinstance(e, Mul):
            return f"({src(e.left)} * {src(e.right)})"
        if isinstance(e, Div):
            return f"({src(e.left)} / {guarded(e.right)})"
        if isinstance(e, Pow):
            if not isinstance(e.exponent, Num):
                return f"({guarded(e.base)} ** {guarded(e.exponent)})"
            base = guarded(e.base) if e.exponent.value < 0 else src(e.base)
            return f"({base} ** {src(e.exponent)})"
        if isinstance(e, Call):
            func = "fabs" if e.func == "abs" and module == "math" else e.func
            arg = guarded(e.arg) if e.func == "exp" else src(e.arg)
            return f"{module}.{func}({arg})"
        raise TypeError(f"cannot compile node of type {type(e).__name__}")

    return src(node)


def compile_expr(node: Expr, varnames: tuple[str, ...]):
    """Compile an Expr into a positional-argument callable.

    Much faster than Expr.eval in tight loops; the callable accepts the
    variables in the given order and broadcasts over numpy arrays. The
    arguments are renamed positionally, so a variable may be named like a
    Python keyword or ``np``.
    """
    args = {name: f"a{i}" for i, name in enumerate(varnames)}
    src = f"lambda {', '.join(args.values())}: {python_source(node, 'np', args)}"
    return eval(src, {"np": np, "__builtins__": {}})  # noqa: S307 - AST-derived source


def _compile_blocks(entries, names):
    """``blocks(size, *args)``: a tuple of arrays, one per block of
    ``entries``, each of shape (size,) + that block's shape.

    ``entries`` holds each block's expressions, nested as the block's
    trailing axes; ``args`` are the values of ``names``, arrays of length
    size or scalars (with size 1). The generated source assigns every
    entry into its preallocated block, one element expression each, from
    the same ``python_source`` text ``compile_expr`` evaluates, so every
    element is bit-equal to that entry compiled on its own and evaluated
    on the same values, and on scalars it raises the same numpy warnings.
    (On Python floats it can differ in the last bit for powers: numpy
    takes an array's x ** 2 as x * x and other array powers from its own
    vector routine, where a scalar power calls the C library's pow.)
    Entries that are the literal +0.0 are left to the zero fill.
    """
    args = {name: f"a{i}" for i, name in enumerate(names)}
    lines = [f"def blocks(size, {', '.join(args.values())}):"]
    for b, block in enumerate(entries):
        shape = np.shape(block)
        lines.append(f"    b{b} = np.zeros((size, {', '.join(map(str, shape))}))")
        for index in np.ndindex(*shape):
            e = block
            for k in index:
                e = e[k]
            if isinstance(e, Num) and str(e) == "0.0":     # not -0.0
                continue
            lines.append(f"    b{b}[:, {', '.join(map(str, index))}] = "
                         f"{python_source(e, 'np', args)}")
    lines.append(f"    return ({''.join(f'b{b}, ' for b in range(len(entries)))})")
    namespace = {"np": np, "__builtins__": {}}
    exec("\n".join(lines), namespace)  # noqa: S102 - AST-derived source
    return namespace["blocks"]
