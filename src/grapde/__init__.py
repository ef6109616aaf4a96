"""Numerical solver and certificate suite for coupled poly-Laplacian systems
on weighted finite graphs, with a scalar specialization, parameter sweeps and
grid optimal control."""

__version__ = "0.1.0"


def load_schema(name: str) -> dict:
    """Return one of the shipped JSON schemas: 'graph', 'problem' or 'report'."""
    import json
    from importlib import resources

    if name not in ("graph", "problem", "report"):
        raise ValueError(f"no schema named {name!r}")
    path = resources.files(__name__) / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))



from .calculus import (
    OperatorOrder,
    gradient_form,
    grad_modulus,
    laplacian,
    polylap_apply,
    polylap_weak_form,
)
from .energy import ProblemInstance, el_residual_norm, phi, phi_grad, psi
from .expressions import differentiate, evaluate, parse_expr, to_source
from .graph import (
    GraphError,
    StatePair,
    VertexFunction,
    WeightedGraph,
    complete_graph,
    integral,
    load_graph,
    path_graph,
    save_graph,
    total_measure,
    validate,
)
from .nonlinearity import (
    BUILTIN_NAMES,
    HypothesisSpec,
    Nonlinearity,
    SamplingConfig,
    builtin,
    check_hypotheses,
)
from .solvers import (
    BoundCertificate,
    CertificateError,
    SolveReport,
    SolverConfig,
    SolverError,
    ball_radius,
    bound_certificate_min,
    bound_certificate_mp,
    local_min_solve,
    mountain_pass_solve,
    negative_endpoint,
    nonexistence_check,
    uniqueness_certificate,
)
from .continuation import branch_continuity_report, branch_to_csv, optimal_control, sweep
from .scalar import ScalarInstance, scalar_bounds
from .spaces import (
    EmbeddingConstants,
    SpaceSpec,
    embedding_constants,
    lr_norm,
    product_norm,
    sup_norm,
    w_norm,
)
