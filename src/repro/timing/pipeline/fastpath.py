"""The compiled engine's pipeline stages, generated from the reference.

``Frontend`` and ``Backend`` write their cycle once, as ``tick`` and the
stage methods it calls; the legacy engine runs those methods as
written.  Called thousands of times per simulated cycle, their
Connector methods and ``Module.bump`` are pure Python dispatch overhead
that an FPGA compile would elaborate away.  This module is the software
analogue of that compile: when the class is defined,
:func:`compile_stages` reads the reference methods' source and builds
one factory per method; at bind time (:func:`bind_stages`, called from
``bind_tick``) each factory hoists the instance's stable attributes and
returns the stage's closure.  Four mechanical rewrites, and no others:

1. **Hoisting.**  A ``self.a.b`` chain, bound methods included, is
   read into a local at bind time as far as each link is declared in
   ``STABLE_ATTRS`` (:class:`repro.timing.module.Module`) of the class
   it is read from.  A chain continues into another class through a
   class-level annotation (``fetch_q: Connector``), which the bind
   checks against the instance.  Everything else -- what squash paths
   and memo rotation rebind (``rs``, ``lsq``, ``in_flight``,
   ``on_instr_commit``, ``_crack_memo``, ``_dispatching``, ``ready``)
   and the mode scalars -- is re-read at each use.
2. **Counters.**  ``x.bump(k[, n])`` becomes an inline update of
   ``x``'s counter dict.
3. **Connectors.**  A Connector method call becomes the source of that
   method from :data:`repro.timing.connector.INLINE_TEMPLATES`; a call
   matching no template fails, naming the method and the line.
4. **Stages.**  ``self._stage(...)`` inside ``tick`` calls the sibling
   generated closure, which the bind passes in (wrapped, for the tick
   profiler).

Every other call stays a call, so each algorithm exists once, in the
reference method.  Each closure compiles against its method's file,
line numbers and module globals: tracebacks point at
``frontend.py``/``backend.py``, and a monkeypatched module global
reaches both engines.  Hoisting at bind time lets class-level wrappers
installed before the schedule is compiled (FastBench's spans) attach,
and a stage method replaced after import is regenerated at the next
bind.  The closures carry no observability probes: FastWatch checks run
as cycle listeners after the steps (see :mod:`repro.timing.schedule`).
"""

from __future__ import annotations

import __future__

import ast
import builtins
import copy
import functools
import inspect
import linecache
import types
import typing
from typing import Callable, Dict, List, Optional, Tuple

from repro.timing.connector import INLINE_TEMPLATES, Connector
from repro.timing.module import Module

Chain = Tuple[str, ...]


class StageBindError(TypeError):
    """A stage method uses a construct the generator cannot compile, or
    an instance does not match its class's declarations."""


class _Plan:
    """One class's generated factories: ``tick`` and the stages it
    calls."""

    def __init__(self, cls):
        self.methods: Dict[str, Callable] = {}
        self.factories: Dict[str, Callable] = {}
        self.assumed: Dict[Chain, type] = {}  # annotated links relied on
        pending = ["tick"]
        while pending:
            name = pending.pop()
            self.methods[name] = fn = getattr(cls, name)
            compiler = _StageCompiler(cls, fn, self.assumed, name == "tick")
            self.factories[name] = compiler.factory()
            pending += [s for s in compiler.stages if s not in self.methods]


_PLANS: Dict[type, _Plan] = {}


def compile_stages(cls) -> None:
    """Generate *cls*'s stage factories (called once, at import)."""
    _PLANS[cls] = _Plan(cls)


def bind_stages(module: Module,
                wrap: Optional[Callable] = None) -> Callable[[int], None]:
    """*module*'s generated ``tick``, calling its generated stage
    closures, each first passed through ``wrap(name, closure)`` if
    given."""
    cls = type(module)
    plan = _PLANS.get(cls)
    if plan is None or any(getattr(cls, name) is not fn
                           for name, fn in plan.methods.items()):
        plan = _PLANS[cls] = _Plan(cls)
    for chain, klass in plan.assumed.items():
        value = module
        for name in chain:
            value = getattr(value, name)
        if not isinstance(value, klass):
            raise StageBindError("%s.%s is declared %s but holds %r" % (
                cls.__name__, ".".join(chain), klass.__name__, value))
    stages: Dict[str, Callable] = {}
    for name, factory in plan.factories.items():
        if name != "tick":
            stage = factory(module)
            stages["_s" + name] = wrap(name, stage) if wrap else stage
    return plan.factories["tick"](module, **stages)


def _parse(fn) -> ast.FunctionDef:
    """A fresh AST of *fn*'s definition, at its line numbers in its file.

    The definition's lines are cut from the file's cached lines by
    indentation, with no tokenize pass.  A cut that ends inside a
    bracket or a string (a continuation line indented no deeper than
    the ``def``) does not parse; ``inspect`` then finds the block."""
    code = fn.__code__
    first = code.co_firstlineno
    linecache.checkcache(code.co_filename)
    lines = linecache.getlines(code.co_filename)
    head = lines[first - 1]
    indent = len(head) - len(head.lstrip())
    end = first
    while end < len(lines):
        text = lines[end].lstrip()
        if text and text[0] != "#" and len(lines[end]) - len(text) <= indent:
            break
        end += 1
    try:
        return _parse_block(lines[first - 1:end], first)
    except SyntaxError:
        return _parse_block(inspect.getsourcelines(fn)[0], first)


def _parse_block(lines: List[str], first: int) -> ast.FunctionDef:
    if lines[0][:1].isspace():  # a method: parse it inside "if 1:"
        tree = ast.parse("\n" * (first - 2) + "if 1:\n" + "".join(lines))
        return tree.body[0].body[0]  # type: ignore
    return ast.parse("\n" * (first - 1) + "".join(lines)).body[0]  # type: ignore


@functools.lru_cache(maxsize=None)
def _template(fn) -> Tuple[List[str], List[ast.stmt]]:
    """An inline template's parameters after ``self`` and its body
    without the docstring, parsed once; :meth:`_StageCompiler.template`
    instantiates a copy per call site."""
    definition = _parse(fn)
    body, first = definition.body, definition.body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        body = body[1:]  # docstring
    return [a.arg for a in definition.args.args][1:], body


def _self_chain(node: ast.AST) -> Optional[Chain]:
    """``("a", "b")`` for ``self.a.b``, ``()`` for ``self``, else None."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(names))
    return None


_LOCATION = ("lineno", "col_offset", "end_lineno", "end_col_offset")


def _location(site: ast.AST) -> Dict[str, int]:
    return {name: getattr(site, name) for name in _LOCATION}


def _chain_ast(chain: Chain, site: ast.AST, root: str = "self") -> ast.expr:
    location = _location(site)
    node: ast.expr = ast.Name(id=root, ctx=ast.Load(), **location)
    for name in chain:
        node = ast.Attribute(value=node, attr=name, ctx=ast.Load(),
                             **location)
    return node


def _place(root, site: ast.AST):
    """Give every node under *root* the source position of *site*."""
    location = _location(site).items()
    todo = [root]
    while todo:
        node = todo.pop()
        if "lineno" in node._attributes:
            for name, value in location:
                setattr(node, name, value)
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                todo.append(value)
            elif isinstance(value, list):
                todo += [v for v in value if isinstance(v, ast.AST)]
    return root


@functools.lru_cache(maxsize=None)
def _declared(cls) -> frozenset:
    return frozenset(path for klass in cls.__mro__
                     for path in vars(klass).get("STABLE_ATTRS", ()))


@functools.lru_cache(maxsize=None)
def _annotations(cls) -> Dict[str, type]:
    """*cls*'s class-level annotations that name a class."""
    try:
        hints = typing.get_type_hints(cls)
    except NameError:  # an unresolvable forward reference
        return {}
    return {k: v for k, v in hints.items() if isinstance(v, type)}


_LEAVES = (ast.Constant, ast.expr_context, ast.operator, ast.boolop,
           ast.cmpop, ast.unaryop)


class _StageCompiler(ast.NodeTransformer):
    """Applies the four rewrites to one reference method."""

    def __init__(self, cls, fn, assumed: Dict[Chain, type], is_tick: bool):
        self.cls, self.fn, self.assumed = cls, fn, assumed
        self.is_tick = is_tick
        self.stages: List[str] = []
        self.hoists: Dict[Chain, str] = {}
        self.temps = 0

    def error(self, node: ast.AST, message: str) -> StageBindError:
        return StageBindError("%s (%s:%d): %s" % (
            self.fn.__qualname__, self.fn.__code__.co_filename,
            getattr(node, "lineno", 0), message))

    def class_of(self, chain: Chain) -> Optional[type]:
        """The class ``self.<chain>`` holds, by annotation."""
        cls: Optional[type] = self.cls
        for i, name in enumerate(chain):
            cls = _annotations(cls).get(name) if cls is not None else None
            if cls is not None:
                self.assumed[chain[:i + 1]] = cls
        return cls

    def stable_length(self, chain: Chain) -> int:
        """How many leading links of ``self.<chain>`` are declared
        stable, continuing into annotated classes."""
        done, cls = 0, self.cls
        while cls is not None:
            declared = _declared(cls)
            k = next((k for k in range(len(chain), done, -1)
                      if ".".join(chain[done:k]) in declared), done)
            if k == done:
                break
            done, cls = k, self.class_of(chain[:k])
        return done

    def generic_visit(self, node: ast.AST) -> ast.AST:
        """``NodeTransformer.generic_visit`` without the visits to
        leaves (constants, contexts, operators) that no rewrite
        touches."""
        for name in node._fields:
            old = getattr(node, name, None)
            if isinstance(old, list):
                new: List[ast.AST] = []
                for value in old:
                    if isinstance(value, ast.AST) and \
                            not isinstance(value, _LEAVES):
                        value = self.visit(value)
                        if value is None:
                            continue
                        if not isinstance(value, ast.AST):
                            new += value
                            continue
                    new.append(value)
                old[:] = new
            elif isinstance(old, ast.AST) and not isinstance(old, _LEAVES):
                value = self.visit(old)
                if value is None:
                    delattr(node, name)
                else:
                    setattr(node, name, value)
        return node

    # rewrite 1: hoisting ------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        chain = _self_chain(node)
        if chain is None:
            return self.generic_visit(node)
        store = not isinstance(node.ctx, ast.Load)
        k = self.stable_length(chain[:-1] if store else chain)
        if k == 0:
            return node
        local = self.hoists.setdefault(chain[:k], "_h%d" % len(self.hoists))
        out = _chain_ast(chain[k:len(chain) - store], node, root=local)
        if store:
            out = ast.copy_location(
                ast.Attribute(value=out, attr=chain[-1], ctx=node.ctx), node)
        return out

    # rewrites 2-4 ------------------------------------------------------

    def call_kind(self, call: ast.expr):
        """``(kind, receiver)`` for a call on a ``self`` chain: kind is
        "bump" for ``Module.bump``, "connector" for a Connector method,
        else None (a stored callable included)."""
        func = getattr(call, "func", None)
        if not isinstance(func, ast.Attribute):
            return None, None
        receiver = _self_chain(func.value)
        if receiver is None:
            return None, None
        owner = self.class_of(receiver) if receiver else self.cls
        method = getattr(owner, func.attr, None)
        if method is Module.bump:
            return "bump", receiver
        if owner is not None and issubclass(owner, Connector) and \
                inspect.isfunction(method):
            return "connector", receiver
        return None, receiver

    def visit_Expr(self, node: ast.Expr):
        call = node.value
        kind, receiver = self.call_kind(call)
        if kind == "bump" and isinstance(call, ast.Call) and \
                not call.keywords and 1 <= len(call.args) <= 2:
            return self.visit_block(self.bump(call, receiver))
        if kind == "connector":
            return self.visit_block(self.inline(call, receiver, None))
        return self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign):
        kind, receiver = self.call_kind(node.value)
        if kind == "connector" and len(node.targets) == 1:
            return self.visit_block(
                self.inline(node.value, receiver, node.targets[0]))
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        chain = _self_chain(node.func)
        if (self.is_tick and chain and len(chain) == 1
                and chain[0].startswith("_")
                and inspect.isfunction(getattr(self.cls, chain[0], None))):
            # rewrite 4: a stage call calls the sibling closure.
            if chain[0] not in self.stages:
                self.stages.append(chain[0])
            node.func = _place(
                ast.Name(id="_s" + chain[0], ctx=ast.Load()), node)
            node.args = [self.visit(arg) for arg in node.args]
            return node
        kind, receiver = self.call_kind(node)
        if kind == "connector":
            body = self.template(node, receiver)
            only = body[0] if len(body) == 1 else None
            if not isinstance(only, ast.Return):
                raise self.error(node, "Connector.%s() used as a value "
                                 "matches no inline template"
                                 % node.func.attr)  # type: ignore
            return self.visit(only.value or ast.Constant(value=None))
        return self.generic_visit(node)

    def visit_block(self, stmts: List[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in stmts:
            visited = self.visit(stmt)
            out += visited if isinstance(visited, list) else [visited]
        return out

    def bump(self, call, receiver: Chain) -> List[ast.stmt]:
        """``<receiver>._counters[k] = <receiver>._counters.get(k, 0) + n``."""
        key, amount = (call.args + [ast.Constant(value=1)])[:2]
        stmts: List[ast.stmt] = []
        if not isinstance(key, (ast.Constant, ast.Name)):
            temp = "_k%d" % self.temps
            self.temps += 1
            stmts.append(ast.Assign(
                targets=[ast.Name(id=temp, ctx=ast.Store())], value=key))
            key = ast.Name(id=temp, ctx=ast.Load())
        counters = receiver + ("_counters",)
        stmts.append(ast.Assign(
            targets=[ast.Subscript(value=_chain_ast(counters, call),
                                   slice=key, ctx=ast.Store())],
            value=ast.BinOp(
                left=ast.Call(func=_chain_ast(counters + ("get",), call),
                              args=[copy.copy(key), ast.Constant(value=0)],
                              keywords=[]),
                op=ast.Add(), right=amount)))
        return [_place(stmt, call) for stmt in stmts]

    def template(self, call: ast.Call, receiver: Chain) -> List[ast.stmt]:
        """The template's body, placed at the call, with ``self`` and the
        parameters bound to the receiver chain and the arguments."""
        attr = call.func.attr  # type: ignore[attr-defined]
        template = INLINE_TEMPLATES.get(attr)
        if template is None:
            raise self.error(call, "Connector call %s.%s() matches no "
                             "inline template" % (
                                 ".".join(("self",) + receiver), attr))
        params, body = _template(template)
        if call.keywords or len(call.args) != len(params) or not all(
                isinstance(a, (ast.Name, ast.Constant)) for a in call.args):
            raise self.error(call, "Connector.%s() arguments must be "
                             "names or constants, by position" % attr)
        bound = dict(zip(params, call.args))
        return [self.instantiate(stmt, receiver, bound, call)
                for stmt in body]

    def instantiate(self, node, receiver: Chain,
                    bound: Dict[str, ast.expr], site: ast.AST):
        """A copy of template node *node* at *site*, its names bound."""
        if isinstance(node, list):
            return [self.instantiate(v, receiver, bound, site) for v in node]
        if not isinstance(node, ast.AST) or isinstance(node, ast.expr_context):
            return node
        if isinstance(node, ast.Name):
            return self.substitute(node, receiver, bound, site)
        out = node.__class__()
        for name in node._fields:
            setattr(out, name, self.instantiate(
                getattr(node, name, None), receiver, bound, site))
        if "lineno" in node._attributes:
            for name, value in _location(site).items():
                setattr(out, name, value)
        return out

    def substitute(self, name: ast.Name, receiver: Chain,
                   bound: Dict[str, ast.expr], site: ast.AST) -> ast.expr:
        if isinstance(name.ctx, ast.Load):
            if name.id == "self":
                return _chain_ast(receiver, site)
            if name.id in bound:
                return _place(copy.copy(bound[name.id]), site)
            if hasattr(builtins, name.id):
                return ast.Name(id=name.id, ctx=name.ctx, **_location(site))
        raise self.error(site, "inline template names %r" % name.id)

    def inline(self, call, receiver: Chain, target) -> List[ast.stmt]:
        try:
            return _lower_returns(self.template(call, receiver), target)
        except ValueError as exc:
            raise self.error(call, "Connector.%s(): %s"
                             % (call.func.attr, exc)) from None

    # the factory --------------------------------------------------------

    def factory(self) -> Callable:
        """``_bind(self, <stage closures>)``: the hoists, then the
        rewritten method as a closure, which it returns."""
        definition = _parse(self.fn)
        params = definition.args.args
        if not params or params[0].arg != "self":
            raise self.error(definition, "first parameter must be self")
        definition.args.args = params[1:]
        definition.decorator_list = []
        definition.body = self.visit_block(definition.body)
        bind = ast.parse("def _bind(%s): pass" % ", ".join(
            ["self"] + ["_s" + name for name in self.stages])).body[0]
        assert isinstance(bind, ast.FunctionDef)
        bind.body = [
            ast.Assign(targets=[ast.Name(id=local, ctx=ast.Store())],
                       value=_chain_ast(chain, definition))
            for chain, local in self.hoists.items()
        ]
        bind.body.append(ast.Return(
            value=ast.Name(id=definition.name, ctx=ast.Load())))
        _place(bind, definition)
        bind.body.insert(-1, definition)
        code = compile(ast.Module(body=[bind], type_ignores=[]),
                       self.fn.__code__.co_filename, "exec",
                       flags=__future__.annotations.compiler_flag,
                       dont_inherit=True)
        bind_code = next(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
        return types.FunctionType(bind_code, self.fn.__globals__)


def _lower_returns(stmts: List[ast.stmt], target) -> List[ast.stmt]:
    """Inline a template body: ``return v`` becomes ``target = v``, or
    is dropped when the call's value is unused.  A return may end the
    body or a top-level ``if``; what follows such an ``if`` becomes its
    ``else``."""
    out: List[ast.stmt] = []
    for i, stmt in enumerate(stmts):
        if isinstance(stmt, ast.Return):
            value = stmt.value or ast.Constant(value=None)
            if target is not None:
                out.append(_place(ast.Assign(
                    targets=[copy.deepcopy(target)], value=value), stmt))
            elif not isinstance(value, ast.Constant):
                out.append(_place(ast.Expr(value=value), stmt))
            return out
        if (isinstance(stmt, ast.If) and not stmt.orelse
                and isinstance(stmt.body[-1], ast.Return)):
            stmt.body = _lower_returns(stmt.body, target) or [
                _place(ast.Pass(), stmt)]
            stmt.orelse = _lower_returns(stmts[i + 1:], target)
            return out + [stmt]
        if any(isinstance(n, ast.Return) for n in ast.walk(stmt)):
            raise ValueError("return nested where it cannot be inlined")
        out.append(stmt)
    if target is not None and stmts:
        out.append(_place(ast.Assign(targets=[copy.deepcopy(target)],
                                     value=ast.Constant(value=None)),
                          stmts[-1]))
    return out
