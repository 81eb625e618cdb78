"""Declarative experiment configs.

A config file is a YAML mapping that names one experiment kind and the
blocks it needs: model, reservoir ensemble, sizes and times, and the output
table. Parsing is strict: unknown keys, keys repeated within one mapping
and non-finite numbers are refused at every level, and each key is read
once by a typed reader on `_Block` that names it in any error. A rule that
a model, state, ensemble, run or solver check owns is left to it; `_build`
reports its refusal under the key of the argument it names, a resource
limit still as one. Each reservoir size is checked by building its run,
an `exact.FiniteMRun` (sectors and their work) or, for a moment check, a
`reservoir.MomentRun` (moment work), so a config is refused here exactly
when running it would be, before any work; size keys past numpy's largest
array are resource limits. Well problems, overlap specs and every run are
built here once and the run uses them; the Stark problem alone is built
just to be checked and built again by the run.

What the ensemble and the state already say is not asked for: a
`factorization` check takes its reference from the ensemble, `kind:
channel` is the Bell channel, and a coherent ket has the dimension of the
state it fills. A `model.system`, in every kind, needs a coupling and an
`initial_state`. No code is ever executed from a config: operators are
named presets or literal matrices of numbers or [re, im] pairs, states
named kets, literal vectors, Fock indices or coherent amplitudes.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .effective import DEFAULT_STEP_TARGET, check_stepper_audit
from .errors import ConfigError, ResourceLimitError
from .exact import FiniteMRun, check_series_block
from .model import (Coupling, SiteModel, SystemModel, check_couplings,
                    coherent_ket, oscillator_site)
from .operators import DensityMatrix, Operator, bell_ket, ket, pauli
from .reservoir import (ChannelCorrelated, DeFinettiMixture, MacroscopicParts,
                        MomentRun, ProductState, bell_channel_kraus,
                        check_moment_site, supermultiplicative_order_limit)

KINDS = ("convergence", "entanglement", "moments", "spectrum", "definetti",
         "decay")

CHECK_NAMES = ("factorization", "moment_bound", "supermultiplicative",
               "series_ratio")

_MISSING = object()

# libyaml's parser when PyYAML was built with it; same documents, same errors
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _StrictLoader(_YAML_LOADER):
    """The YAML loader, refusing a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # a merge (<<) may be overridden; only explicit keys must differ
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        problem=f"repeated key {key!r} at line "
                                f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep)


_NAMED_MATRICES = {
    "pauli_x": pauli("x").data,
    "pauli_y": pauli("y").data,
    "pauli_z": pauli("z").data,
    "identity2": np.eye(2, dtype=complex),
}

_NAMED_KETS = {"zero": "0", "one": "1", "plus": "+", "minus": "-"}


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    if not abs(x) <= sys.float_info.max:  # inf, nan, or an int past float
        raise ConfigError(f"{where}: expected a finite number, got {x}")
    return float(x)


def _integer(x, where: str, minimum: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where}: expected an integer")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {x}")
    return x


def _build(where: str, make, *args, keys=None, **kwargs):
    """make(*args, **kwargs), a refusal reported at where, or at
    where.keys[arg] when it names one argument arg that keys maps: a
    resource limit as a ResourceLimitError, any other as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:
        key = (keys or {}).get(getattr(exc, "arg", None))
        at = f"{where}.{key}" if key else where
        kind = (ResourceLimitError if isinstance(exc, ResourceLimitError)
                else ConfigError)
        raise kind(f"{at}: {exc}") from exc


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

    def number(self, key: str, default=_MISSING) -> float:
        return _number(self.get(key, default), f"{self.where}.{key}")

    def positive(self, key: str, default=_MISSING) -> float:
        val = self.number(key, default)
        if not val > 0:
            raise ConfigError(f"{self.where}.{key}: must be positive, got {val}")
        return val

    def integer(self, key: str, default=_MISSING,
                minimum: int | None = None) -> int:
        return _integer(self.get(key, default), f"{self.where}.{key}", minimum)

    def count(self, key: str, default=_MISSING, minimum: int | None = None,
              *, nbytes) -> int:
        """An integer whose run forms arrays of up to nbytes(value) bytes,
        refused past numpy's largest array (sys.maxsize bytes), which numpy
        refuses with a ValueError; below it a failed allocation is a
        MemoryError, a resource limit too."""
        n = self.integer(key, default, minimum)
        if nbytes(n) > sys.maxsize:
            raise ResourceLimitError(
                f"{self.where}.{key}: {n} forms an array of {nbytes(n)} "
                f"bytes, past numpy's largest of {sys.maxsize}")
        return n

    def string(self, key: str, default=_MISSING, choices=None) -> str:
        x = self.get(key, default)
        if not isinstance(x, str):
            raise ConfigError(f"{self.where}.{key}: expected a string")
        if choices is not None and x not in choices:
            raise ConfigError(f"{self.where}.{key}: expected one of "
                              f"{', '.join(choices)}, got {x!r}")
        return x

    def flag(self, key: str, default=_MISSING) -> bool:
        x = self.get(key, default)
        if not isinstance(x, bool):
            raise ConfigError(f"{self.where}.{key}: expected true or false")
        return x

    def items(self, key: str) -> list:
        """A nonempty list."""
        node = self.get(key)
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{self.where}.{key}: expected a nonempty list")
        return node

    def each(self, key: str) -> "_Block":
        """A nonempty list as a block whose keys are key[0], key[1], ..."""
        return _Block({f"{key}[{j}]": item
                       for j, item in enumerate(self.items(key))}, self.where)

    def numbers(self, key: str, length: int = 0) -> tuple[float, ...]:
        """A nonempty list of numbers, of exactly length entries if length > 0."""
        node = self.get(key)
        where = f"{self.where}.{key}"
        if not isinstance(node, list) or not node or length and len(node) != length:
            raise ConfigError(f"{where}: expected a list of "
                              f"{length or 'one or more'} numbers")
        return tuple(_number(x, where) for x in node)

    def sizes(self, key: str) -> tuple[int, ...]:
        """A strictly increasing list of positive integers."""
        where = f"{self.where}.{key}"
        out = tuple(_integer(m, where, minimum=1) for m in self.items(key))
        if any(a >= b for a, b in zip(out, out[1:])):
            raise ConfigError(f"{where}: must be strictly increasing, got "
                              f"{list(out)}")
        return out

    def operator(self, key: str, site_dim: int = 0) -> Operator:
        """A Hermitian operator on one factor, or on nu factors of dimension
        site_dim when its size is site_dim**nu."""
        where = f"{self.where}.{key}"
        mat = parse_matrix(self.get(key), where)
        return _build(where, Operator, mat, _factor_dims(mat.shape[0], site_dim),
                      hermitian=True)

    def state(self, key: str, dims):
        return parse_state(self.get(key), f"{self.where}.{key}", dims)


def _factor_dims(n: int, d: int) -> tuple[int, ...]:
    """(d,) * nu when n == d**nu, else (n,); a d = 1 site takes nu = 1."""
    nu, size = 1, d
    while 1 < size < n:
        size, nu = size * d, nu + 1
    return (d,) * nu if size == n else (n,)


def _entry(node, where: str) -> complex:
    if isinstance(node, bool):
        raise ConfigError(f"{where}: booleans are not matrix entries")
    pair = [node, 0] if isinstance(node, (int, float)) else node
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(p, (int, float)) and not isinstance(p, bool)
                    for p in pair)):
        raise ConfigError(f"{where}: entries are numbers or [re, im] pairs")
    return complex(_number(pair[0], where), _number(pair[1], where))


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


def parse_state(node, where: str, dims):
    """Density matrix from a named ket, literal ket/matrix, Fock index, or
    coherent amplitude, a coherent ket truncated to the state's dimension.
    Returns (DensityMatrix, alpha), where alpha is the amplitude of a
    coherent preset and None for every other form.
    """
    dims = tuple(int(d) for d in dims)
    dim = math.prod(dims)
    if isinstance(node, str):
        if node == "bell":
            if dims != (2, 2):
                raise ConfigError(f"{where}: 'bell' needs two qubit factors, "
                                  f"have {dims}")
            return DensityMatrix.pure(bell_ket(), dims), None
        if node not in _NAMED_KETS:
            names = ", ".join(sorted(_NAMED_KETS) + ["bell"])
            raise ConfigError(f"{where}: unknown state {node!r} "
                              f"(known: {names})")
        return _build(where, DensityMatrix.pure, ket(_NAMED_KETS[node]),
                      dims), None
    block = _Block(node, where)
    forms = [k for k in ("ket", "matrix", "fock", "coherent") if block.has(k)]
    if len(forms) != 1:
        raise ConfigError(f"{where}: give exactly one of ket, matrix, fock, "
                          f"coherent")
    form = forms[0]
    alpha = None
    if form == "ket":
        vec = np.array([_entry(e, f"{where}.ket") for e in block.items("ket")],
                       dtype=complex)
        out = _build(f"{where}.ket", DensityMatrix.pure, vec, dims)
    elif form == "matrix":
        mat = parse_matrix(block.get("matrix"), f"{where}.matrix")
        out = _build(f"{where}.matrix", DensityMatrix, mat, dims)
    elif form == "fock":
        k = block.integer("fock", minimum=0)
        if k >= dim:
            raise ConfigError(f"{where}.fock: level {k} outside 0..{dim - 1}")
        vec = np.zeros(dim, dtype=complex)
        vec[k] = 1.0
        out = DensityMatrix.pure(vec, dims)
    else:
        alpha = _entry(block.get("coherent"), f"{where}.coherent")
        out = DensityMatrix.pure(coherent_ket(alpha, dim), dims)
    block.done()
    return out, alpha


def _build_site(block: _Block) -> SiteModel:
    """An oscillator site, or a matrix site with its interactions."""
    if block.has("oscillator"):
        osc = block.sub("oscillator")
        block.done()
        # the level ladder, a complex number per level
        levels = osc.count("levels", minimum=2, nbytes=lambda n: 16 * n)
        omega = osc.number("frequency", 1.0)
        interaction = osc.string("interaction", "field", ("field", "number"))
        strength = (osc.number("strength", 1.0) if interaction == "number"
                    else 1.0)
        osc.done()
        return oscillator_site(levels, omega, interaction, strength)
    h = block.operator("hamiltonian")
    interactions = []
    if block.has("interaction"):
        interactions.append(block.operator("interaction", h.dim))
    elif block.has("interactions"):
        listed = block.each("interactions")
        interactions = [listed.operator(k, h.dim) for k in listed.node]
    block.done()
    return _build(block.where, SiteModel, h=h,
                  interactions=tuple(interactions))


def _subsystem(block: _Block, j: int):
    """Local Hamiltonian of subsystem j and its coupling (None if absent)."""
    h = block.operator("hamiltonian")
    coupling = None
    if block.has("coupling"):
        coupling = Coupling(g=block.operator("coupling"),
                            v_index=block.integer("interaction_index", 0,
                                                  minimum=0),
                            subsystem=j)
    block.done()
    return h, coupling


def _build_system(block: _Block) -> SystemModel:
    """One subsystem given inline, or a list of them under subsystems."""
    parts = [block]
    if block.has("subsystems"):
        listed = block.each("subsystems")
        block.done()
        parts = (listed.sub(k) for k in listed.node)
    read = [_subsystem(b, j) for j, b in enumerate(parts)]
    return _build(block.where, SystemModel,
                  local_h=tuple(h for h, _ in read),
                  couplings=tuple(c for _, c in read if c is not None))


def _build_reservoir(block: _Block, site_dim: int):
    """Reservoir ensemble plus the coherent amplitude of its site state."""
    kind = block.string("kind", choices=("product", "channel", "definetti",
                                         "macroscopic"))
    if kind in ("product", "channel"):
        state, alpha = block.state("site_state", (site_dim,))
        block.done()
        if kind == "product":
            return ProductState(state), alpha
        # kind: channel is the Bell channel, which acts on two sites
        return _build(block.where, ChannelCorrelated, state, 2,
                      bell_channel_kraus()), alpha
    key, weight_key, family = (("atoms", "weight", DeFinettiMixture)
                               if kind == "definetti" else
                               ("parts", "fraction", MacroscopicParts))
    listed = block.each(key)
    block.done()
    pairs = []
    for k in listed.node:
        sub = listed.sub(k)
        w = sub.positive(weight_key)
        state, _ = sub.state("site_state", (site_dim,))
        sub.done()
        pairs.append((w, state))
    return _build(block.where, family, tuple(pairs)), None


def _build_run(block: _Block, sys_dim: int):
    m_list = block.sizes("m_list")
    t_max = block.positive("t_max")
    # the trajectory: n_times complex system density matrices
    n_times = block.count("n_times", minimum=2,
                          nbytes=lambda n: 16 * sys_dim ** 2 * n)
    step_target = block.positive("step_target", DEFAULT_STEP_TARGET)
    block.done()
    return m_list, np.linspace(0.0, t_max, n_times), step_target


def _build_checks(listed: _Block, site: SiteModel, reservoir,
                  system: SystemModel | None, initial: DensityMatrix | None,
                  alpha) -> tuple[dict, ...]:
    """Check specs, each finished where it is read: a moment bound carries
    the coherent amplitude alpha, a series check its FiniteMRun, and a moment
    check its runs, one MomentRun per M of its m_list on its full times."""
    out = []
    for k in listed.node:
        blk = listed.sub(k)
        name = blk.string("check", choices=CHECK_NAMES)
        spec: dict = {"check": name}
        m_list = times = ()
        if name == "factorization":
            m_list = blk.sizes("m_list")
            times = blk.numbers("times")
        elif name == "moment_bound":
            if alpha is None:
                raise ConfigError(f"{blk.where}: coherent moment bounds need "
                                  f"a coherent reservoir site state")
            spec["bound"] = blk.string("bound",
                                       choices=("coherent", "coherent_safe"))
            spec["orders"] = tuple(_integer(n, f"{blk.where}.orders", minimum=1)
                                   for n in blk.items("orders"))
            m_list = blk.sizes("m_list")
            times = blk.numbers("times", length=max(spec["orders"]))
            spec["alpha"] = alpha
        elif name == "supermultiplicative":
            spec["max_order"] = blk.integer("max_order", minimum=2)
            top = supermultiplicative_order_limit()
            if spec["max_order"] > top:
                raise ConfigError(f"{blk.where}.max_order: the joint constant "
                                  f"leaves the float range past order {top}, "
                                  f"got {spec['max_order']}")
        else:
            if system is None:
                raise ConfigError(f"{blk.where}: series_ratio checks need a "
                                  f"model.system block")
            spec["order"] = blk.integer("order", minimum=1)
            spec["t"] = blk.positive("t")
            spec["m_count"] = blk.integer("m_count", minimum=1)
            if blk.get("ratio_window", None) is not None:
                lo, hi = blk.numbers("ratio_window", length=2)
                if not lo < hi:
                    raise ConfigError(f"{blk.where}.ratio_window: need lo < hi")
                spec["ratio_window"] = (lo, hi)
            spec["run"] = _build(f"{blk.where}.m_count", FiniteMRun, system,
                                 site, spec["m_count"], reservoir, initial,
                                 np.array([spec["t"] / 2, spec["t"]]))
            _build(blk.where, check_series_block, spec["run"], spec["order"],
                   keys={"run": "m_count", "order": "order"})
        blk.done()
        for m in m_list:
            # only a factorization check has a size bound
            run = _build(f"{blk.where}.m_list", MomentRun, reservoir, m, site,
                         times, name == "factorization")
            spec["runs"] = (*spec.get("runs", ()), run)
            # without a block the reference is the exact two-time error
            if (name == "factorization" and len(times) != 2
                    and all(b is None for _, _, b in run.components)):
                raise ConfigError(f"{blk.where}.times: expected a list of 2 "
                                  f"numbers without a correlation block, "
                                  f"got {len(times)}")
        out.append(spec)
    return tuple(out)


def _build_problem(block: _Block) -> dict:
    """A well's problem per depth, or the Stark parameters."""
    from . import analysis  # lazy: keeps `import mflab` light
    kind = block.string("type", choices=("well", "stark"))
    if kind == "well":
        args = (block.number("width", 1.0), block.number("x_max"),
                # the finer rung of the count: 2n + 1 points
                block.count("n_grid", 400, nbytes=lambda n: 8 * (2 * n + 1)),
                block.flag("half_line", True))
        depths = block.numbers("depths")
        block.done()
        keys = {"depth": "depths", "width": "width", "x_max": "x_max",
                "n_grid": "n_grid"}
        return {"wells": tuple((d, _build(block.where, analysis.well_problem,
                                          d, *args, keys=keys))
                               for d in depths)}
    out = {"slope": block.number("slope"), "levels": block.integer("levels"),
           # the finest Richardson rung: 4n + 3 points
           "n_grid": block.count("n_grid", 1600,
                                 nbytes=lambda n: 8 * (4 * n + 3)),
           "rel_tol": block.positive("rel_tol", 1e-4)}
    block.done()
    _build(block.where, analysis.stark_problem, out["slope"], out["levels"],
           out["n_grid"], keys={"slope": "slope", "n_levels": "levels",
                                "n_grid": "n_grid"})
    return out


def _build_overlap(block: _Block) -> dict:
    """The overlap spec of the profile, its time grid and tolerance."""
    from . import analysis  # lazy: keeps `import mflab` light
    if block.string("profile", choices=("gaussian", "bump")) == "gaussian":
        make, args = analysis.gaussian_overlap, (block.number("scale", 1.0),)
    else:
        make, args = analysis.bump_overlap, (block.number("center"),
                                             block.number("halfwidth"))
    r_max, tol = block.number("r_max"), block.positive("tol", 1e-7)
    if isinstance(block.get("times"), list):
        times = block.numbers("times")
    else:
        sub = block.sub("times")
        t_max = sub.positive("t_max")
        # three complex Filon weights per time, the static t = 0 included
        n_times = sub.count("n_times", minimum=2,
                            nbytes=lambda n: 48 * (n + 1))
        sub.done()
        times = np.linspace(0.0, t_max, n_times)
    block.done()
    spec = _build(block.where, make, *args, r_max, keys={
        "scale": "scale", "halfwidth": "halfwidth", "r_max": "r_max"})
    times = _build(block.where, analysis.overlap_times, spec, times,
                   keys={"times": "times"})
    return {"spec": spec, "times": times, "tol": tol}


def _build_audit(block: _Block) -> dict:
    out = {
        "count": block.integer("count", minimum=1),
        "t_max": block.positive("t_max", 1.5),
        "seed": block.integer("seed", minimum=0),
        "substeps": block.integer("substeps", 48, minimum=4),
    }
    _build(block.where, check_stepper_audit, out["count"], out["substeps"],
           keys={"count": "count", "substeps": "substeps"})
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
    initial_state: DensityMatrix | None = None
    grid: np.ndarray | None = None
    runs: tuple[FiniteMRun, ...] = ()  # what a trajectory kind propagates
    step_target: float = DEFAULT_STEP_TARGET
    audit: dict | None = None
    checks: tuple[dict, ...] = ()
    problem: dict | None = None
    overlap: dict | None = None


def _table_name(block: _Block) -> str:
    name = block.string("table")
    block.done()
    if not name.endswith(".csv") or len(name) <= 4:
        raise ConfigError(f"{block.where}.table: expected a .csv filename")
    if "/" in name or "\\" in name or name.startswith("."):
        raise ConfigError(f"{block.where}.table: plain filename only")
    return name


def parse_config(doc, where: str = "config") -> ExperimentConfig:
    top = _Block(doc, where)
    kind = top.string("kind", choices=KINDS)
    description = top.string("description", "")
    head = {"kind": kind, "description": description,
            "table": _table_name(top.sub("outputs"))}

    if kind == "spectrum":
        problem = _build_problem(top.sub("problem"))
        top.done()
        return ExperimentConfig(**head, problem=problem)
    if kind == "decay":
        overlap = _build_overlap(top.sub("overlap"))
        top.done()
        return ExperimentConfig(**head, overlap=overlap)
    if kind == "convergence" and top.has("stepper_audit"):
        audit = _build_audit(top.sub("stepper_audit"))
        top.done()
        return ExperimentConfig(**head, audit=audit)

    model = top.sub("model")
    site = _build_site(model.sub("site"))
    system = initial = None
    if kind != "moments" or model.has("system"):
        system = _build_system(model.sub("system"))
    model.done()
    if system is not None:  # every kind: a system is coupled and prepared
        _build(f"{where}.model.system", check_couplings, system, site)
        if not system.couplings:
            raise ConfigError(f"{where}.model.system: needs a coupling")
        initial, _ = top.state("initial_state", system.subsystem_dims)

    reservoir, alpha = _build_reservoir(top.sub("reservoir"), site.dim)

    if kind == "moments":
        listed = top.each("checks")
        top.done()
        _build(f"{where}.model.site", check_moment_site, site)
        checks = _build_checks(listed, site, reservoir, system, initial, alpha)
        return ExperimentConfig(**head, system=system, site=site,
                                reservoir=reservoir, initial_state=initial,
                                checks=checks)

    m_list, grid, step_target = _build_run(top.sub("run"), system.dim)
    top.done()

    if kind == "entanglement" and system.n_subsystems < 2:
        raise ConfigError(f"{where}.model.system: entanglement runs need at "
                          f"least two subsystems")
    if kind == "definetti" and not isinstance(reservoir, DeFinettiMixture):
        raise ConfigError(f"{where}.reservoir: definetti runs need "
                          f"kind: definetti")
    runs = tuple(_build(f"{where}.run.m_list", FiniteMRun, system, site, m,
                        reservoir, initial, grid) for m in m_list)
    return ExperimentConfig(**head, system=system, site=site,
                            reservoir=reservoir, initial_state=initial,
                            grid=grid, runs=runs, step_target=step_target)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_StrictLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    name = os.path.basename(str(path))
    return parse_config(doc, where=name)
