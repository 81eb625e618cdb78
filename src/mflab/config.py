"""Declarative experiment configs.

A config file is a YAML mapping that names one experiment kind and the
blocks it needs: which model to build, which reservoir ensemble to prepare,
what sizes and times to run, and where the output table goes. Parsing is
strict; unknown keys are rejected at every level so a typo cannot silently
change an experiment.

No code is ever executed from a config. Operators are named presets
(pauli_x, ...) or literal matrices whose entries are numbers or [re, im]
pairs; states are named kets, literal vectors, Fock indices, or coherent
amplitudes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .effective import DEFAULT_STEP_TARGET
from .errors import ConfigError, ValidationError
from .model import (ClusterInteraction, Coupling, SiteModel, SystemModel,
                    coherent_ket, oscillator_site)
from .operators import DensityMatrix, Operator, bell_ket, ket, pauli
from .reservoir import (ChannelCorrelated, DeFinettiMixture, MacroscopicParts,
                        ProductState, bell_channel_kraus, decompose)

KINDS = ("convergence", "entanglement", "moments", "spectrum", "definetti",
         "decay")

CHECK_NAMES = ("pair_factorization", "correlated_bound", "moment_bound",
               "supermultiplicative", "series_ratio")

_MISSING = object()

# libyaml's parser when PyYAML was built with it; same documents, same errors
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_NAMED_MATRICES = {
    "pauli_x": pauli("x").data,
    "pauli_y": pauli("y").data,
    "pauli_z": pauli("z").data,
    "identity2": np.eye(2, dtype=complex),
}

_NAMED_KETS = {"zero": "0", "one": "1", "plus": "+", "minus": "-"}


class _Block:
    """Mapping view that tracks which keys were read and rejects leftovers."""

    def __init__(self, node, where: str):
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: expected a mapping")
        for k in node:
            if not isinstance(k, str):
                raise ConfigError(f"{where}: keys must be strings, got {k!r}")
        self.node = node
        self.where = where
        self.seen: set[str] = set()

    def get(self, key: str, default=_MISSING):
        self.seen.add(key)
        if key in self.node:
            return self.node[key]
        if default is _MISSING:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return default

    def has(self, key: str) -> bool:
        return key in self.node

    def sub(self, key: str) -> "_Block":
        return _Block(self.get(key), f"{self.where}.{key}")

    def done(self) -> None:
        extra = sorted(set(self.node) - self.seen)
        if extra:
            raise ConfigError(
                f"{self.where}: unknown key(s) {', '.join(map(repr, extra))}")


def _as_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    return float(x)


def _as_positive(x, where: str) -> float:
    val = _as_number(x, where)
    if not val > 0:
        raise ConfigError(f"{where}: must be positive, got {val}")
    return val


def _as_int(x, where: str, minimum: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where}: expected an integer")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {x}")
    return x

def _as_str(x, where: str, choices=None) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"{where}: expected a string")
    if choices is not None and x not in choices:
        raise ConfigError(
            f"{where}: expected one of {', '.join(choices)}, got {x!r}")
    return x


def _as_bool(x, where: str) -> bool:
    if not isinstance(x, bool):
        raise ConfigError(f"{where}: expected true or false")
    return x


def _entry(node, where: str) -> complex:
    if isinstance(node, bool):
        raise ConfigError(f"{where}: booleans are not matrix entries")
    if isinstance(node, (int, float)):
        return complex(node)
    if (isinstance(node, list) and len(node) == 2
            and all(isinstance(p, (int, float)) and not isinstance(p, bool)
                    for p in node)):
        return complex(node[0], node[1])
    raise ConfigError(f"{where}: entries are numbers or [re, im] pairs")


def parse_matrix(node, where: str) -> np.ndarray:
    """Named preset or a square nested list of entries."""
    if isinstance(node, str):
        if node not in _NAMED_MATRICES:
            names = ", ".join(sorted(_NAMED_MATRICES))
            raise ConfigError(f"{where}: unknown matrix name {node!r} "
                              f"(known: {names})")
        return _NAMED_MATRICES[node].copy()
    if isinstance(node, list) and node and all(isinstance(r, list) for r in node):
        rows = [[_entry(e, where) for e in r] for r in node]
        if any(len(r) != len(rows) for r in rows):
            raise ConfigError(f"{where}: matrix must be square")
        return np.array(rows, dtype=complex)
    raise ConfigError(f"{where}: expected a matrix name or a nested list")


def _parse_vector(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where}: expected a nonempty list")
    vec = np.array([_entry(e, where) for e in node], dtype=complex)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise ConfigError(f"{where}: vector has zero norm")
    return vec / norm


def _hermitian_operator(node, where: str) -> Operator:
    mat = parse_matrix(node, where)
    try:
        return Operator(mat, (mat.shape[0],), hermitian=True)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_state(node, where: str, dims, levels: int | None = None):
    """Density matrix from a named ket, literal ket/matrix, Fock index, or
    coherent amplitude. Returns (DensityMatrix, meta) where meta records
    preset parameters the runners may need (e.g. the coherent amplitude).
    """
    dims = tuple(int(d) for d in dims)
    dim = math.prod(dims)
    meta: dict = {}
    if isinstance(node, str):
        if node == "bell":
            if dims != (2, 2):
                raise ConfigError(f"{where}: 'bell' needs two qubit factors, "
                                  f"have {dims}")
            return DensityMatrix.pure(bell_ket(), dims), meta
        if node not in _NAMED_KETS:
            names = ", ".join(sorted(_NAMED_KETS) + ["bell"])
            raise ConfigError(f"{where}: unknown state {node!r} "
                              f"(known: {names})")
        if dim != 2:
            raise ConfigError(f"{where}: named qubit ket on a dim-{dim} factor")
        return DensityMatrix.pure(ket(_NAMED_KETS[node]), dims), meta
    block = _Block(node, where)
    forms = [k for k in ("ket", "matrix", "fock", "coherent") if block.has(k)]
    if len(forms) != 1:
        raise ConfigError(f"{where}: give exactly one of ket, matrix, fock, "
                          f"coherent")
    form = forms[0]
    if form == "ket":
        vec = _parse_vector(block.get("ket"), f"{where}.ket")
        if vec.size != dim:
            raise ConfigError(f"{where}.ket: length {vec.size}, expected {dim}")
        out = DensityMatrix.pure(vec, dims)
    elif form == "matrix":
        mat = parse_matrix(block.get("matrix"), f"{where}.matrix")
        if mat.shape[0] != dim:
            raise ConfigError(f"{where}.matrix: dim {mat.shape[0]}, "
                              f"expected {dim}")
        try:
            out = DensityMatrix(mat, dims)
        except Exception as exc:
            raise ConfigError(f"{where}.matrix: {exc}") from exc
    elif form == "fock":
        k = _as_int(block.get("fock"), f"{where}.fock", minimum=0)
        if k >= dim:
            raise ConfigError(f"{where}.fock: level {k} outside 0..{dim - 1}")
        vec = np.zeros(dim, dtype=complex)
        vec[k] = 1.0
        out = DensityMatrix.pure(vec, dims)
        meta["fock"] = k
    else:
        if levels is None:
            raise ConfigError(f"{where}.coherent: needs an oscillator site "
                              f"with a declared level count")
        alpha = _entry(block.get("coherent"), f"{where}.coherent")
        out = DensityMatrix.pure(coherent_ket(alpha, levels), dims)
        meta["alpha"] = alpha
    block.done()
    return out, meta


def _build_site(block: _Block):
    """SiteModel plus meta ({'levels': n} for the oscillator preset)."""
    if block.has("oscillator"):
        osc = block.sub("oscillator")
        block.done()
        levels = _as_int(osc.get("levels"), f"{osc.where}.levels", minimum=2)
        omega = _as_number(osc.get("frequency", 1.0), f"{osc.where}.frequency")
        interaction = _as_str(osc.get("interaction", "field"),
                              f"{osc.where}.interaction", ("field", "number"))
        nu = _as_number(osc.get("strength", 1.0), f"{osc.where}.strength")
        osc.done()
        site = oscillator_site(levels, omega, interaction, nu)
        return site, {"levels": levels}
    h = _hermitian_operator(block.get("hamiltonian"),
                            f"{block.where}.hamiltonian")
    interactions = []
    if block.has("interaction"):
        interactions.append(_hermitian_operator(
            block.get("interaction"), f"{block.where}.interaction"))
    elif block.has("interactions"):
        node = block.get("interactions")
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{block.where}.interactions: expected a "
                              f"nonempty list")
        for k, item in enumerate(node):
            interactions.append(_hermitian_operator(
                item, f"{block.where}.interactions[{k}]"))
    block.done()
    try:
        return SiteModel(h=h, interactions=tuple(interactions)), {}
    except Exception as exc:
        raise ConfigError(f"{block.where}: {exc}") from exc


def _build_system(block: _Block) -> SystemModel:
    if block.has("subsystems"):
        node = block.get("subsystems")
        block.done()
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{block.where}.subsystems: expected a "
                              f"nonempty list")
        local_h, couplings = [], []
        for j, item in enumerate(node):
            sub = _Block(item, f"{block.where}.subsystems[{j}]")
            local_h.append(_hermitian_operator(sub.get("hamiltonian"),
                                               f"{sub.where}.hamiltonian"))
            if sub.has("coupling"):
                g = _hermitian_operator(sub.get("coupling"),
                                        f"{sub.where}.coupling")
                v_index = _as_int(sub.get("interaction_index", 0),
                                  f"{sub.where}.interaction_index", minimum=0)
                couplings.append(Coupling(g=g, v_index=v_index, subsystem=j))
            sub.done()
        try:
            return SystemModel(local_h=tuple(local_h),
                               couplings=tuple(couplings))
        except Exception as exc:
            raise ConfigError(f"{block.where}: {exc}") from exc
    h = _hermitian_operator(block.get("hamiltonian"),
                            f"{block.where}.hamiltonian")
    couplings = []
    if block.has("coupling"):
        g = _hermitian_operator(block.get("coupling"),
                                f"{block.where}.coupling")
        v_index = _as_int(block.get("interaction_index", 0),
                          f"{block.where}.interaction_index", minimum=0)
        couplings.append(Coupling(g=g, v_index=v_index, subsystem=0))
    block.done()
    try:
        return SystemModel(local_h=(h,), couplings=tuple(couplings))
    except Exception as exc:
        raise ConfigError(f"{block.where}: {exc}") from exc


def _site_state(block: _Block, key: str, site_dim: int, levels):
    node = block.get(key)
    return parse_state(node, f"{block.where}.{key}", (site_dim,), levels)


def _build_reservoir(block: _Block, site_dim: int, levels: int | None):
    """Reservoir ensemble plus meta from the site-state presets."""
    kind = _as_str(block.get("kind"), f"{block.where}.kind",
                   ("product", "channel", "definetti", "macroscopic"))
    if kind == "product":
        state, meta = _site_state(block, "site_state", site_dim, levels)
        block.done()
        return ProductState(state), meta
    if kind == "channel":
        state, meta = _site_state(block, "site_state", site_dim, levels)
        corr = _as_int(block.get("corr_length"), f"{block.where}.corr_length",
                       minimum=1)
        chan = _as_str(block.get("channel"), f"{block.where}.channel",
                       ("bell",))
        block.done()
        if site_dim != 2:
            raise ConfigError(f"{block.where}: the bell channel acts on "
                              f"qubit sites, have dim {site_dim}")
        try:
            out = ChannelCorrelated(state, corr, bell_channel_kraus())
        except Exception as exc:
            raise ConfigError(f"{block.where}: {exc}") from exc
        meta["channel"] = chan
        return out, meta
    key, weight_key, family = (("atoms", "weight", DeFinettiMixture)
                               if kind == "definetti" else
                               ("parts", "fraction", MacroscopicParts))
    node = block.get(key)
    block.done()
    if not isinstance(node, list) or len(node) < 1:
        raise ConfigError(f"{block.where}.{key}: expected a nonempty list")
    pairs = []
    for j, item in enumerate(node):
        sub = _Block(item, f"{block.where}.{key}[{j}]")
        w = _as_positive(sub.get(weight_key), f"{sub.where}.{weight_key}")
        state, _ = _site_state(sub, "site_state", site_dim, levels)
        sub.done()
        pairs.append((w, state))
    try:
        return family(tuple(pairs)), {}
    except Exception as exc:
        raise ConfigError(f"{block.where}: {exc}") from exc


def _m_list(node, where: str) -> tuple[int, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = tuple(_as_int(m, where, minimum=1) for m in node)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ConfigError(f"{where}: must be strictly increasing, got "
                          f"{list(out)}")
    return out


def _float_list(node, where: str, length: int = 0) -> tuple[float, ...]:
    """A nonempty list of numbers, of exactly length entries if length > 0."""
    if not isinstance(node, list) or not node or length and len(node) != length:
        raise ConfigError(f"{where}: expected a list of "
                          f"{length or 'one or more'} numbers")
    return tuple(_as_number(x, where) for x in node)


def _build_run(block: _Block):
    m_list = _m_list(block.get("m_list"), f"{block.where}.m_list")
    t_max = _as_positive(block.get("t_max"), f"{block.where}.t_max")
    n_times = _as_int(block.get("n_times"), f"{block.where}.n_times",
                      minimum=2)
    step_target = _as_positive(block.get("step_target", DEFAULT_STEP_TARGET),
                               f"{block.where}.step_target")
    block.done()
    return m_list, np.linspace(0.0, t_max, n_times), step_target


def _build_checks(node, where: str) -> tuple[dict, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = []
    for j, item in enumerate(node):
        blk = _Block(item, f"{where}[{j}]")
        name = _as_str(blk.get("check"), f"{blk.where}.check", CHECK_NAMES)
        spec: dict = {"check": name}
        if name == "pair_factorization":
            spec["m_list"] = _m_list(blk.get("m_list"), f"{blk.where}.m_list")
            spec["times"] = _float_list(blk.get("times"), f"{blk.where}.times",
                                        length=2)
        elif name == "correlated_bound":
            spec["m_list"] = _m_list(blk.get("m_list"), f"{blk.where}.m_list")
            spec["times"] = _float_list(blk.get("times"), f"{blk.where}.times")
        elif name == "moment_bound":
            spec["bound"] = _as_str(blk.get("bound"), f"{blk.where}.bound",
                                    ("coherent", "coherent_safe"))
            orders = blk.get("orders")
            if not isinstance(orders, list) or not orders:
                raise ConfigError(f"{blk.where}.orders: expected a nonempty "
                                  f"list")
            spec["orders"] = tuple(_as_int(n, f"{blk.where}.orders", minimum=1)
                                   for n in orders)
            spec["m_list"] = _m_list(blk.get("m_list"), f"{blk.where}.m_list")
            spec["times"] = _float_list(blk.get("times"), f"{blk.where}.times",
                                        length=max(spec["orders"]))
        elif name == "supermultiplicative":
            spec["max_order"] = _as_int(blk.get("max_order"),
                                        f"{blk.where}.max_order", minimum=2)
        else:
            spec["order"] = _as_int(blk.get("order"), f"{blk.where}.order",
                                    minimum=1)
            if spec["order"] > 4:
                raise ConfigError(f"{blk.where}.order: series comparison is "
                                  f"implemented through order 4")
            spec["t"] = _as_positive(blk.get("t"), f"{blk.where}.t")
            spec["m_count"] = _as_int(blk.get("m_count"), f"{blk.where}.m_count",
                                      minimum=1)
            window = blk.get("ratio_window", None)
            if window is not None:
                lo, hi = _float_list(window, f"{blk.where}.ratio_window",
                                     length=2)
                if not lo < hi:
                    raise ConfigError(f"{blk.where}.ratio_window: need lo < hi")
                spec["ratio_window"] = (lo, hi)
        blk.done()
        out.append(spec)
    return tuple(out)


def _build_problem(block: _Block) -> dict:
    kind = _as_str(block.get("type"), f"{block.where}.type", ("well", "stark"))
    if kind == "well":
        out = {
            "type": "well",
            "x_max": _as_positive(block.get("x_max"), f"{block.where}.x_max"),
            "n_grid": _as_int(block.get("n_grid", 400), f"{block.where}.n_grid",
                              minimum=64),
            "width": _as_positive(block.get("width", 1.0),
                                  f"{block.where}.width"),
            "depths": _float_list(block.get("depths"), f"{block.where}.depths"),
            "half_line": _as_bool(block.get("half_line", True),
                                  f"{block.where}.half_line"),
        }
        if any(d <= 0 for d in out["depths"]):
            raise ConfigError(f"{block.where}.depths: well depths must be "
                              f"positive")
        if out["width"] >= out["x_max"]:
            raise ConfigError(f"{block.where}: width must sit inside the "
                              f"domain, got width {out['width']} with x_max "
                              f"{out['x_max']}")
        block.done()
        return out
    out = {
        "type": "stark",
        "slope": _as_positive(block.get("slope"), f"{block.where}.slope"),
        "levels": _as_int(block.get("levels"), f"{block.where}.levels",
                          minimum=1),
        "n_grid": _as_int(block.get("n_grid", 1600), f"{block.where}.n_grid",
                          minimum=64),
        "rel_tol": _as_positive(block.get("rel_tol", 1e-4),
                                f"{block.where}.rel_tol"),
    }
    block.done()
    return out


def _build_overlap(block: _Block) -> dict:
    profile = _as_str(block.get("profile"), f"{block.where}.profile",
                      ("gaussian", "bump"))
    out = {
        "profile": profile,
        "r_max": _as_positive(block.get("r_max"), f"{block.where}.r_max"),
        "tol": _as_positive(block.get("tol", 1e-7), f"{block.where}.tol"),
    }
    if profile == "gaussian":
        out["scale"] = _as_number(block.get("scale", 1.0),
                                  f"{block.where}.scale")
        if out["scale"] == 0:
            raise ConfigError(f"{block.where}.scale: must be nonzero")
    else:
        out["center"] = _as_positive(block.get("center"),
                                     f"{block.where}.center")
        out["halfwidth"] = _as_positive(block.get("halfwidth"),
                                        f"{block.where}.halfwidth")
        if out["center"] - out["halfwidth"] < 0:
            raise ConfigError(f"{block.where}: bump support crosses r = 0")
        if out["center"] + out["halfwidth"] > out["r_max"]:
            raise ConfigError(f"{block.where}: bump support exceeds r_max")
    node = block.get("times")
    if isinstance(node, list):
        out["times"] = np.array(_float_list(node, f"{block.where}.times"))
        if np.any(out["times"] < 0):
            raise ConfigError(f"{block.where}.times: times must be >= 0")
    else:
        sub = _Block(node, f"{block.where}.times")
        t_max = _as_positive(sub.get("t_max"), f"{sub.where}.t_max")
        n_times = _as_int(sub.get("n_times"), f"{sub.where}.n_times",
                          minimum=2)
        sub.done()
        out["times"] = np.linspace(0.0, t_max, n_times)
    block.done()
    return out


def _build_audit(block: _Block) -> dict:
    out = {
        "count": _as_int(block.get("count"), f"{block.where}.count",
                         minimum=1),
        "t_max": _as_positive(block.get("t_max", 1.5), f"{block.where}.t_max"),
        "seed": _as_int(block.get("seed"), f"{block.where}.seed", minimum=0),
        "substeps": _as_int(block.get("substeps", 48),
                            f"{block.where}.substeps", minimum=4),
    }
    block.done()
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, fully resolved experiment description."""

    kind: str
    table: str
    description: str = ""
    system: SystemModel | None = None
    site: SiteModel | None = None
    reservoir: object | None = None
    reservoir_meta: dict = field(default_factory=dict)
    initial_state: DensityMatrix | None = None
    grid: np.ndarray | None = None
    m_list: tuple[int, ...] = ()
    step_target: float = DEFAULT_STEP_TARGET
    cluster: ClusterInteraction | None = None
    audit: dict | None = None
    checks: tuple[dict, ...] = ()
    problem: dict | None = None
    overlap: dict | None = None


def _table_name(block: _Block) -> str:
    name = _as_str(block.get("table"), f"{block.where}.table")
    block.done()
    if not name.endswith(".csv") or len(name) <= 4:
        raise ConfigError(f"{block.where}.table: expected a .csv filename")
    if "/" in name or "\\" in name or name.startswith("."):
        raise ConfigError(f"{block.where}.table: plain filename only")
    return name


def _check_sizes(reservoir, m_list, site_dim: int, where: str) -> None:
    """Refuse reservoir sizes the ensemble cannot be decomposed at."""
    for m in m_list:
        try:
            decompose(reservoir, m, site_dim)
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc, where: str = "config") -> ExperimentConfig:
    top = _Block(doc, where)
    kind = _as_str(top.get("kind"), f"{where}.kind", KINDS)
    description = _as_str(top.get("description", ""), f"{where}.description")
    table = _table_name(top.sub("outputs"))

    if kind == "spectrum":
        problem = _build_problem(top.sub("problem"))
        top.done()
        return ExperimentConfig(kind=kind, table=table,
                                description=description, problem=problem)
    if kind == "decay":
        overlap = _build_overlap(top.sub("overlap"))
        top.done()
        return ExperimentConfig(kind=kind, table=table,
                                description=description, overlap=overlap)
    if kind == "convergence" and top.has("stepper_audit"):
        audit = _build_audit(top.sub("stepper_audit"))
        top.done()
        return ExperimentConfig(kind=kind, table=table,
                                description=description, audit=audit)

    model = top.sub("model")
    site, site_meta = _build_site(model.sub("site"))
    levels = site_meta.get("levels")
    system = None
    if model.has("system"):
        system = _build_system(model.sub("system"))
    cluster = None
    if model.has("cluster"):
        cb = model.sub("cluster")
        size = _as_int(cb.get("size"), f"{cb.where}.size", minimum=1)
        op = parse_matrix(cb.get("operator"), f"{cb.where}.operator")
        cb.done()
        d = site.dim
        if op.shape[0] != d ** size:
            raise ConfigError(f"{cb.where}.operator: dim {op.shape[0]} does "
                              f"not match {size} site factors of dim {d}")
        try:
            cluster = ClusterInteraction(
                nu=size, v_cluster=Operator(op, (d,) * size, hermitian=True))
        except Exception as exc:
            raise ConfigError(f"{cb.where}: {exc}") from exc
    model.done()
    if cluster is not None and kind != "convergence":
        raise ConfigError(f"{where}.model.cluster: cluster interactions are "
                          f"supported by convergence runs only")

    reservoir, res_meta = _build_reservoir(top.sub("reservoir"), site.dim,
                                           levels)
    res_meta.update(site_meta)

    if kind == "moments":
        checks = _build_checks(top.get("checks"), f"{where}.checks")
        initial = None
        if top.has("initial_state"):
            if system is None:
                raise ConfigError(f"{where}.initial_state: needs a "
                                  f"model.system block")
            initial, _ = parse_state(top.get("initial_state"),
                                     f"{where}.initial_state",
                                     system.subsystem_dims, levels)
        top.done()
        if not site.interactions:
            raise ConfigError(f"{where}.model.site: moment checks need an "
                              f"interaction operator")
        if any(c["check"] == "series_ratio" for c in checks):
            if system is None or not system.couplings:
                raise ConfigError(f"{where}: series_ratio checks need a "
                                  f"model.system block with a coupling")
            if initial is None:
                raise ConfigError(f"{where}: series_ratio checks need an "
                                  f"initial_state")
        if any(c["check"] == "moment_bound" and c["bound"].startswith("coherent")
               for c in checks) and "alpha" not in res_meta:
            raise ConfigError(f"{where}: coherent moment bounds need a "
                              f"coherent reservoir site state")
        for j, c in enumerate(checks):
            if "m_list" in c:
                _check_sizes(reservoir, c["m_list"], site.dim,
                             f"{where}.checks[{j}].m_list")
            elif "m_count" in c:
                _check_sizes(reservoir, (c["m_count"],), site.dim,
                             f"{where}.checks[{j}].m_count")
        return ExperimentConfig(kind=kind, table=table,
                                description=description, system=system,
                                site=site, reservoir=reservoir,
                                reservoir_meta=res_meta, initial_state=initial,
                                checks=checks)

    if system is None:
        raise ConfigError(f"{where}.model: missing required key 'system'")
    if not system.couplings and cluster is None:
        raise ConfigError(f"{where}.model.system: propagation kinds need a "
                          f"coupling")
    initial, _ = parse_state(top.get("initial_state"), f"{where}.initial_state",
                             system.subsystem_dims, levels)
    m_list, grid, step_target = _build_run(top.sub("run"))
    top.done()

    if kind == "entanglement" and system.n_subsystems < 2:
        raise ConfigError(f"{where}.model.system: entanglement runs need at "
                          f"least two subsystems")
    if kind == "definetti" and not isinstance(reservoir, DeFinettiMixture):
        raise ConfigError(f"{where}.reservoir: definetti runs need "
                          f"kind: definetti")
    if cluster is not None and any(m < cluster.nu for m in m_list):
        raise ConfigError(f"{where}.run.m_list: entries must be at least the "
                          f"cluster size {cluster.nu}")
    _check_sizes(reservoir, m_list, site.dim, f"{where}.run.m_list")
    if cluster is None:
        if not site.interactions:
            raise ConfigError(f"{where}.model.site: propagation kinds need an "
                              f"interaction operator")
        for k, c in enumerate(system.couplings):
            if c.v_index >= len(site.interactions):
                raise ConfigError(
                    f"{where}.model.system: coupling {k} references site "
                    f"interaction {c.v_index}, site declares "
                    f"{len(site.interactions)}")
    return ExperimentConfig(kind=kind, table=table, description=description,
                            system=system, site=site, reservoir=reservoir,
                            reservoir_meta=res_meta, initial_state=initial,
                            grid=grid, m_list=m_list, step_target=step_target,
                            cluster=cluster)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    name = os.path.basename(str(path))
    return parse_config(doc, where=name)
