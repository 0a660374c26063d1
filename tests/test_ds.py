"""Delayed-sampling forest operations."""

import math

import numpy as np
import pytest

from symppl.ds import DsBackend, InitN, MargN, MargRootN, RealizedN, marginalized_child
from symppl.interface import CastLog
from symppl.lang import Annotation
from symppl.sym import (
    DBernoulli,
    DBeta,
    DInvGamma,
    DNormal,
    DStudentT,
    EvalError,
    SymState,
    VConst,
    VRV,
    add,
    mul,
)


def rng():
    return np.random.default_rng(3)


def validate_forest(g: SymState) -> None:
    """Check the one-parent and single-marginalized-path invariants."""
    for rid, entry in g.entries.items():
        node = entry.node
        if node is None:
            continue
        marginalized_child(g, node)
        match node:
            case MargN(parent, _, _) | InitN(parent, _):
                pnode = g.node(parent)
                if isinstance(pnode, RealizedN):
                    raise EvalError(f"{rid} linked under realized parent {parent}")
                if rid not in pnode.children:
                    raise EvalError(f"{rid} missing from parent {parent} child set")


def setup_chain():
    """x1 ~ N(0,1), x2 ~ N(x1, 1) assumed through the backend."""
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    x1 = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    x2 = backend.assume(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), g)
    return g, backend, x1, x2


def test_initialize_node_types():
    g, backend, x1, x2 = setup_chain()
    assert isinstance(g.node(x1), MargRootN)
    node = g.node(x2)
    assert isinstance(node, InitN) and node.parent == x1
    assert x2 in g.node(x1).children
    validate_forest(g)


def test_assume_constant_parent_is_root():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    x = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    assert isinstance(g.node(x), MargRootN)


def test_conjugate_dist_forces_nonconjugate_parents():
    # sum of two invgammas as a mean: neither parent is conjugate
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    q = backend.assume(Annotation.NONE, DInvGamma(VConst(1.0), VConst(1.0)), g)
    r = backend.assume(Annotation.NONE, DInvGamma(VConst(1.0), VConst(1.0)), g)
    x = backend.assume(Annotation.NONE, DNormal(add(VRV(q), VRV(r)), VConst(1.0)), g)
    assert g.realized_value(q) is not None and g.realized_value(r) is not None
    assert isinstance(g.node(x), MargRootN)
    validate_forest(g)


def test_conjugate_dist_keeps_single_conjugate_parent():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    x = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    y = backend.assume(Annotation.NONE, DNormal(mul(VConst(2.0), VRV(x)), VConst(1.0)), g)
    assert g.realized_value(x) is None
    assert isinstance(g.node(y), InitN)


def test_graft_marginalizes_chain():
    g, backend, x1, x2 = setup_chain()
    backend.graft(x2, g)
    node = g.node(x2)
    assert isinstance(node, MargN) and node.parent == x1
    d = g.eval_distr(g.distr(x2))
    assert isinstance(d, DNormal)
    assert abs(d.mu.v) < 1e-12 and abs(d.var.v - 2.0) < 1e-12
    validate_forest(g)


def test_graft_on_terminal_root_is_identity():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    x = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    before = dict(g.entries)
    backend.graft(x, g)
    assert g.entries == before


def test_graft_prunes_marginalized_child():
    g, backend, x1, x2 = setup_chain()
    backend.graft(x2, g)  # x1 -- x2 marginalized path
    backend.graft(x1, g)  # must prune (sample) x2
    assert g.realized_value(x2) is not None
    assert isinstance(g.node(x2), RealizedN)
    validate_forest(g)


def test_prune_samples_leaf_first():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    order = []
    x1 = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    x2 = backend.assume(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), g)
    x3 = backend.assume(Annotation.NONE, DNormal(VRV(x2), VConst(1.0)), g)
    backend.graft(x3, g)  # path x1 - x2 - x3
    original_value = backend.value

    def tracking_value(rid, g2):
        order.append(rid)
        return original_value(rid, g2)

    backend.value = tracking_value
    backend.prune(x2, g)
    backend.value = original_value
    assert order == [x3, x2]  # leaf first
    validate_forest(g)


def test_realize_updates_parent_posterior():
    g, backend, x1, x2 = setup_chain()
    w = backend.observe(x2, 1.0, g)
    assert abs(math.exp(w) - 0.21969564473386122) < 1e-12
    d1 = g.eval_distr(g.distr(x1))
    assert abs(d1.mu.v - 0.5) < 1e-12 and abs(d1.var.v - 0.5) < 1e-12
    assert isinstance(g.node(x1), MargRootN) and x2 not in g.node(x1).children
    validate_forest(g)


def test_realize_roots_initialized_children():
    g, backend, x1, x2 = setup_chain()
    backend.value(x1, g)
    node = g.node(x2)
    assert isinstance(node, MargRootN)
    d = g.eval_distr(g.distr(x2))
    assert isinstance(d, DNormal) and isinstance(d.mu, VConst)
    validate_forest(g)


def test_invgamma_variance_marginalizes_to_student_t():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    q = backend.assume(Annotation.NONE, DInvGamma(VConst(1.0), VConst(1.0)), g)
    x = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VRV(q)), g)
    backend.graft(x, g)
    d = g.eval_distr(g.distr(x))
    assert isinstance(d, DStudentT)
    assert abs(d.dof.v - 2.0) < 1e-12 and abs(d.scale.v - 1.0) < 1e-12
    v = backend.value(x, g)
    dq = g.eval_distr(g.distr(q))
    assert isinstance(dq, DInvGamma)
    assert abs(dq.a.v - 1.5) < 1e-12
    assert abs(dq.b.v - (1.0 + v.v ** 2 / 2.0)) < 1e-12


def test_beta_bernoulli_realize():
    g = SymState(rng(), CastLog())
    backend = DsBackend()
    p = backend.assume(Annotation.NONE, DBeta(VConst(1.0), VConst(1.0)), g)
    f = backend.assume(Annotation.NONE, DBernoulli(VRV(p)), g)
    backend.graft(f, g)
    assert g.eval_distr(g.distr(f)) == DBernoulli(VConst(0.5))
    w = backend.observe(f, True, g)
    assert abs(math.exp(w) - 0.5) < 1e-12
    dp = g.eval_distr(g.distr(p))
    assert isinstance(dp, DBeta) and dp.a.v == 2.0 and dp.b.v == 1.0


def test_symbolic_node_on_prune_path_logs_cast():
    casts = CastLog()
    g = SymState(rng(), casts)
    backend = DsBackend()
    x1 = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    x2 = backend.assume(Annotation.SYMBOLIC, DNormal(VRV(x1), VConst(1.0)), g, label="x2")
    backend.graft(x2, g)
    assert len(casts) == 0
    backend.graft(x1, g)  # prunes the symbolic marginalized child
    assert [rid for rid, _ in casts.events] == [x2]
