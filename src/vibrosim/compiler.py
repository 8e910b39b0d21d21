"""Trotterized native-gate compilation of the three-site Hamiltonian.

One second-order step over ``tau`` is a palindrome: every Hamiltonian term
is compiled exactly (conjugation identities, no intra-block error) at
``tau/2`` in a fixed forward order, then again in reversed order.  If the
run is dissipative, the per-site channel dilations are appended after the
full unitary palindrome, sharing the single ancilla transmon with resets
in between.

Hardware connectivity is the linear transmon chain

    qa -- anc -- qb -- qc

with each transmon coupled to its own cavity (qa-ma, anc-ml, qb-mb,
qc-mc).  Two-qubit terms that span non-adjacent transmons are routed with
SWAP conjugations; the two a-c flip-flop rotations share one routing
window (they commute), which keeps the per-step tally at the published
84 CNOT-equivalents / 9 CD / 3 SNAP-class gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from . import channels
from .hilbert import HilbertLayout, apply_local
from .isa import GateOp, TWO_QUBIT_KINDS, decompose_cnot_cavity_only
from .model import EffectiveParams, SITES, three_site_layout

#: adjacency of the three-site register, by subsystem label
THREE_SITE_ADJACENCY = (
    ("qa", "anc"), ("anc", "qb"), ("qb", "qc"),
    ("qa", "ma"), ("anc", "ml"), ("qb", "mb"), ("qc", "mc"),
)

#: per-step gate tallies of the published resource estimate
TRANSMON_STEP_COUNT = {"cnot": 84, "cd": 9, "snap": 3}
CAVITY_STEP_COUNT = {"bs": 336, "cd": 345, "snap": 3}


@dataclass
class CompiledProgram:
    """A compiled Trotter experiment.

    ``step_ops`` is one full second-order step (unitary palindrome plus the
    optional dissipation layer); ``forward_ops`` is the forward unitary
    half-pass only, used for resource accounting.  ``prep_ops`` prepare the
    initial state from the all-zero register.
    """

    layout: HilbertLayout
    n_fock: int
    tau: float
    prep_ops: list[GateOp]
    step_ops: list[GateOp]
    forward_ops: list[GateOp]
    readout: tuple[int, ...]
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# term emitters (each block equals its target exponential exactly)
# ---------------------------------------------------------------------------

def compile_h0(ep: EffectiveParams, dt: float, lay: HilbertLayout) -> list[GateOp]:
    """exp(-i H0 dt): free mode rotations and the detuning Rz gates."""
    ops = [
        GateOp("R", (lay.index("ma"),), (-ep.omega_a * dt,), tag="h0"),
        GateOp("R", (lay.index("mb"),), (-ep.omega_b * dt,), tag="h0"),
        GateOp("R", (lay.index("mc"),), (-ep.omega_c * dt,), tag="h0"),
        GateOp("R", (lay.index("ml"),), (-ep.omega_l * dt,), tag="h0"),
        GateOp("RZ", (lay.index("qb"),), (-ep.delta_ab * dt,), tag="h0"),
        GateOp("RZ", (lay.index("qc"),), (-ep.delta_ac * dt,), tag="h0"),
    ]
    return ops


def compile_h1_site(ep: EffectiveParams, site: str, dt: float,
                    lay: HilbertLayout) -> list[GateOp]:
    """exp(-i H1_site dt) as CR (dispersive) then CD (displacement) blocks.

    The two factors do not commute; their ordering is handled by the
    palindrome at the step level, where they enter as separate terms.
    """
    chi = getattr(ep, f"chi_{site}")
    g_cd = getattr(ep, f"g_cd_{site}")
    q, mode = lay.index(f"q{site}"), lay.index(f"m{site}")
    return [
        GateOp("CR", (q, mode), (0.5 * chi * dt,), tag=f"h1-{site}"),
        GateOp("CD", (q, mode), (-0.5j * g_cd * dt,), tag=f"h1-{site}"),
    ]


def compile_dispersive_lowfreq(theta: float, lay: HilbertLayout,
                               tag: str = "h2-lterm") -> list[GateOp]:
    """exp(i theta sigma_z_qa (l + l^dag)) via SWAP-conjugated CD.

    The system qubit's state is swapped onto the ancilla transmon (which
    natively controls the low-frequency cavity), displaced conditionally,
    and swapped back.
    """
    qa, anc, ml = lay.index("qa"), lay.index("anc"), lay.index("ml")
    return [
        GateOp("SWAP", (qa, anc), tag=tag),
        GateOp("CD", (anc, ml), (1j * theta,), tag=tag),
        GateOp("SWAP", (qa, anc), tag=tag),
    ]


def _rz_wrap(ops: list[GateOp], qubits, tag: str) -> list[GateOp]:
    """Conjugate a block by Rz(pi/2) on the given qubits (maps XX -> YY)."""
    pre = [GateOp("RZ", (q,), (-math.pi / 2,), tag=tag) for q in qubits]
    post = [GateOp("RZ", (q,), (math.pi / 2,), tag=tag) for q in qubits]
    return pre + ops + post


def compile_pair_bare(ep: EffectiveParams, pair: str, pauli: str, dt: float,
                      lay: HilbertLayout) -> list[GateOp]:
    """exp(-i (g/2) P_a P_x dt) for a bare transmon-transmon coupling.

    a-b rotations act between qa and the ancilla position after routing
    qb's state there (7 two-qubit gates).  The a-c pair is emitted jointly
    by :func:`compile_pair_bare_ac` to share its longer routing window.
    """
    if pair != "ab":
        raise ValueError("use compile_pair_bare_ac for the a-c pair")
    qa, anc, qb = lay.index("qa"), lay.index("anc"), lay.index("qb")
    kind = "RXX" if pauli == "x" else "RYY"
    tag = f"h2-bare-ab-{pauli}{pauli}"
    theta = ep.g_ab * dt
    return [
        GateOp("SWAP", (anc, qb), tag=tag),
        GateOp(kind, (qa, anc), (theta,), tag=tag),
        GateOp("SWAP", (anc, qb), tag=tag),
    ]


def compile_pair_bare_ac(ep: EffectiveParams, dt: float, lay: HilbertLayout,
                         yy_first: bool = False) -> list[GateOp]:
    """exp(-i (g_ac/2)(XX + YY) dt) on the a-c pair, one routing window.

    qc's state is walked to the ancilla position (two SWAPs), both
    commuting rotations are applied, and the routing is undone: 14
    two-qubit gates for the two terms together.  ``yy_first`` flips the
    inner rotation order so the reversed half-pass stays a strict
    gate-level palindrome.
    """
    qa, anc, qb, qc = (lay.index(s) for s in ("qa", "anc", "qb", "qc"))
    tag = "h2-bare-ac"
    theta = ep.g_ac * dt
    inner = [GateOp("RXX", (qa, anc), (theta,), tag=tag),
             GateOp("RYY", (qa, anc), (theta,), tag=tag)]
    if yy_first:
        inner.reverse()
    return ([GateOp("SWAP", (qb, qc), tag=tag), GateOp("SWAP", (anc, qb), tag=tag)]
            + inner
            + [GateOp("SWAP", (anc, qb), tag=tag), GateOp("SWAP", (qb, qc), tag=tag)])


def compile_pair_mode(ep: EffectiveParams, pair: str, pauli: str, dt: float,
                      lay: HilbertLayout) -> list[GateOp]:
    """exp(-i (g/2) P_a P_x (l + l^dag) dt), the mode-modulated coupling.

    The CD on the low-frequency cavity is conjugated into a two-qubit
    sigma_z sigma_z character by a CNOT and routed SWAPs, then Hadamards
    (and an extra Rz conjugation for the YY flavour) rotate it into the
    target Pauli basis.  a-b costs 1 CD + 8 CNOT-equivalents, a-c costs
    1 CD + 14 because qc sits two hops from the ancilla.
    """
    if pair not in ("ab", "ac"):
        raise ValueError(f"unknown pair {pair!r}")
    g = ep.g_abl if pair == "ab" else ep.g_acl
    qa, anc, qb, qc = (lay.index(s) for s in ("qa", "anc", "qb", "qc"))
    ml = lay.index("ml")
    partner = qb if pair == "ab" else qc
    tag = f"h2-mode-{pair}-{pauli}{pauli}"
    theta = -0.5 * g * dt

    if pair == "ab":
        route_in = [GateOp("SWAP", (partner, anc), tag=tag)]
    else:
        route_in = [GateOp("SWAP", (qb, qc), tag=tag),
                    GateOp("SWAP", (anc, qb), tag=tag)]
    route_out = route_in[::-1]
    core = (route_in
            + [GateOp("CNOT", (qa, anc), tag=tag),
               GateOp("CD", (anc, ml), (1j * theta,), tag=tag),
               GateOp("CNOT", (qa, anc), tag=tag)]
            + route_out)
    block = ([GateOp("H", (qa,), tag=tag), GateOp("H", (partner,), tag=tag)]
             + core
             + [GateOp("H", (qa,), tag=tag), GateOp("H", (partner,), tag=tag)])
    if pauli == "y":
        block = _rz_wrap(block, (qa, partner), tag)
    return block


# ---------------------------------------------------------------------------
# full step assembly
# ---------------------------------------------------------------------------

def _forward_terms(ep: EffectiveParams, dt: float, lay: HilbertLayout,
                   lowfreq_split: str):
    """Ordered exact sub-blocks of one half-pass, H0 -> H1 -> XX -> YY."""
    lcoef = ep.g_cd_l / (4.0 if lowfreq_split == "printed" else 2.0)
    terms = [("h0", compile_h0(ep, dt, lay))]
    for s in SITES:
        cr, cd = compile_h1_site(ep, s, dt, lay)
        terms.append((f"h1-cr-{s}", [cr]))
        terms.append((f"h1-cd-{s}", [cd]))
    terms += [
        ("lterm-xx", compile_dispersive_lowfreq(-lcoef * dt, lay, "h2-lterm-xx")),
        ("bare-ab-xx", compile_pair_bare(ep, "ab", "x", dt, lay)),
        ("mode-ab-xx", compile_pair_mode(ep, "ab", "x", dt, lay)),
        ("mode-ac-xx", compile_pair_mode(ep, "ac", "x", dt, lay)),
        ("bare-ac-pair", compile_pair_bare_ac(ep, dt, lay)),
        ("mode-ac-yy", compile_pair_mode(ep, "ac", "y", dt, lay)),
        ("mode-ab-yy", compile_pair_mode(ep, "ab", "y", dt, lay)),
        ("bare-ab-yy", compile_pair_bare(ep, "ab", "y", dt, lay)),
        ("lterm-yy", compile_dispersive_lowfreq(-lcoef * dt, lay, "h2-lterm-yy")),
    ]
    return terms


def compile_unitary_step(ep: EffectiveParams, tau: float, lay: HilbertLayout,
                         lowfreq_split: str = "printed"):
    """Second-order palindromic step: forward half-pass then its reverse.

    Returns ``(step_ops, forward_ops)``.
    """
    terms = _forward_terms(ep, 0.5 * tau, lay, lowfreq_split)
    forward = [op for _, ops in terms for op in ops]
    reverse = []
    for name, ops in reversed(terms):
        if name == "bare-ac-pair":
            ops = compile_pair_bare_ac(ep, 0.5 * tau, lay, yy_first=True)
        reverse.extend(ops)
    return forward + reverse, forward


def dissipation_layer(rates_by_site: dict, tau: float, lay: HilbertLayout,
                      exact_angles: bool = True) -> list[GateOp]:
    """Per-site channel dilations appended after the unitary palindrome.

    ``rates_by_site`` maps site label ("a", "b", "c") to a dict of channel
    rates (see :mod:`vibrosim.channels`).  All fragments share the single
    ancilla transmon, which each fragment measures and resets.
    """
    anc = lay.index("anc")
    ops: list[GateOp] = []
    for s in SITES:
        rates = rates_by_site.get(s)
        if not rates:
            continue
        ops.extend(channels.compose_general_channel(
            rates, tau, lay.index(f"q{s}"), anc, exact=exact_angles))
    return ops


def compile_step(ep: EffectiveParams, tau: float, n_fock: int,
                 rates_by_site: dict | None = None,
                 initial_site: str = "a",
                 exact_angles: bool = True,
                 lowfreq_split: str = "printed") -> CompiledProgram:
    """Compile one full Trotter step of the three-site model.

    The initial state is a single electronic excitation on
    ``initial_site`` with every mode in vacuum.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    lay = three_site_layout(n_fock)
    step_ops, forward = compile_unitary_step(ep, tau, lay, lowfreq_split)
    validate_connectivity(step_ops, lay)
    if rates_by_site:
        step_ops = step_ops + dissipation_layer(
            rates_by_site, tau, lay, exact_angles=exact_angles)
    prep = [GateOp("X", (lay.index(f"q{initial_site}"),), tag="prep")]
    readout = tuple(lay.index(f"q{s}") for s in SITES)
    return CompiledProgram(
        layout=lay, n_fock=n_fock, tau=tau, prep_ops=prep,
        step_ops=step_ops, forward_ops=forward, readout=readout,
        metadata={"lowfreq_split": lowfreq_split,
                  "exact_angles": exact_angles,
                  "rates_by_site": rates_by_site or {},
                  "initial_site": initial_site,
                  "readout_labels": ("A", "B", "C")},
    )


def compile_spin_boson_step(sb, tau: float,
                            exact_angles: bool = True) -> CompiledProgram:
    """One Trotter step of the dissipative spin-boson benchmark.

    The register is one system qubit plus its dilation ancilla.  The
    unitary part is the free evolution exp(-i H_S tau) (a single Rz since
    H_S = -E0 sigma_z), followed by the relaxation, excitation and
    dephasing fragments at the Debye-bath rates.  The initial state is
    |+> on the system qubit.
    """
    from .model import HBAR_EV_S, lindblad_rates

    lay = HilbertLayout((2, 2), ("q", "anc"))
    rates = lindblad_rates(sb)
    theta = -2.0 * (sb.e0 / HBAR_EV_S) * tau
    unitary = [GateOp("RZ", (0,), (theta,), tag="hs")]
    step_ops = unitary + channels.compose_general_channel(
        {"amp": rates["relax"], "exc": rates["exc"], "dep": rates["dep"]},
        tau, 0, 1, exact=exact_angles)
    prep = [GateOp("H", (0,), tag="prep")]
    return CompiledProgram(
        layout=lay, n_fock=0, tau=tau, prep_ops=prep, step_ops=step_ops,
        forward_ops=unitary, readout=(0,),
        metadata={"exact_angles": exact_angles, "rates": rates,
                  "readout_labels": ("1",)},
    )


# ---------------------------------------------------------------------------
# connectivity validation
# ---------------------------------------------------------------------------

def validate_connectivity(ops, lay: HilbertLayout) -> None:
    """Reject 2-local gates on pairs not in ``THREE_SITE_ADJACENCY``.

    Dissipation fragments (tagged ``channel-*``) are module-local per the
    hardware picture and exempt from chain routing.
    """
    edges = {frozenset(map(lay.index, pair)) for pair in THREE_SITE_ADJACENCY}
    for op in ops:
        if len(op.targets) != 2 or op.tag.startswith("channel-"):
            continue
        if frozenset(op.targets) not in edges:
            raise ValueError(
                f"gate {op.kind} on {op.targets} violates the declared "
                f"adjacency")


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------

def walk_step_resources(program: CompiledProgram) -> dict:
    """Tally the forward unitary half-pass of a compiled step.

    CNOT-equivalents: CNOT and the two-qubit rotations count 1, SWAP
    counts 3.  CR realized through SNAP-class control counts as SNAP.
    """
    counts = {"cnot": 0, "cd": 0, "snap": 0}
    for op in program.forward_ops:
        if op.kind == "SWAP":
            counts["cnot"] += 3
        elif op.kind in TWO_QUBIT_KINDS:
            counts["cnot"] += 1
        elif op.kind == "CD":
            counts["cd"] += 1
        elif op.kind in ("CR", "SNAP"):
            counts["snap"] += 1
    return counts


def resource_count(n_sites: int, architecture: str = "transmon") -> dict:
    """Closed-form per-step gate tallies for an N-site array.

    ``transmon`` counts CNOT-equivalents/CD/SNAP; ``cavity_only`` expands
    each CNOT-equivalent through :func:`decompose_cnot_cavity_only` into
    4 BS + 4 CD.
    """
    if n_sites < 3:
        raise ValueError("resource model requires at least 3 sites")
    scale = n_sites - 2
    if architecture == "transmon":
        return {k: scale * v for k, v in TRANSMON_STEP_COUNT.items()}
    if architecture == "cavity_only":
        template = decompose_cnot_cavity_only()
        per_cnot = {"bs": sum(1 for t in template if t.kind == "BS"),
                    "cd": sum(1 for t in template if t.kind == "CD")}
        base = TRANSMON_STEP_COUNT
        return {"bs": scale * base["cnot"] * per_cnot["bs"],
                "cd": scale * (base["cnot"] * per_cnot["cd"] + base["cd"]),
                "snap": scale * base["snap"]}
    raise ValueError(f"unknown architecture {architecture!r}")


# ---------------------------------------------------------------------------
# step diagnostics
# ---------------------------------------------------------------------------

def ops_to_unitary(ops, lay: HilbertLayout, n_fock: int) -> np.ndarray:
    """Dense unitary of a measurement-free op list (for verification)."""
    from .isa import gate_matrix

    dim = lay.total_dim
    u = np.eye(dim, dtype=np.complex128)
    for op in ops:
        if op.kind in ("MEASURE", "RESET"):
            raise ValueError("op list contains non-unitary operations")
        mat = gate_matrix(op, n_fock)
        u = apply_local(u, lay, mat, op.targets)
    return u


def _spectral_norm(mat: sp.spmatrix) -> float:
    """Largest |eigenvalue| of a Hermitian sparse matrix."""
    dim = mat.shape[0]
    if dim <= 1024:
        return float(np.max(np.abs(
            np.linalg.eigvalsh(np.asarray(mat.todense())))))
    val = scipy.sparse.linalg.eigsh(
        mat, k=1, which="LM", return_eigenvectors=False, tol=1e-9)
    return float(abs(val[0]))


def trotter_error_coeff(terms: dict) -> float:
    """Leading second-order error coefficient of the palindromic splitting.

    For the ordered groups (H0, H1, H2XX, H2YY) the per-step error is
    bounded by ``alpha * tau^3`` with alpha built from the nested
    commutators of each group with the tail of the ordering (1/12 bracket
    family) and with its own head (1/24 family); norms are spectral.
    """
    h = [terms["h0"], terms["h1"], terms["h2xx"], terms["h2yy"]]

    def comm(x, y):
        return (x @ y - y @ x).tocsr()

    tail12 = 0.0
    tail24 = 0.0
    for i in range(3):
        tail = sum(h[i + 1:])
        tail12 += _spectral_norm(comm(tail, comm(tail, h[i])))
        tail24 += _spectral_norm(comm(h[i], comm(h[i], tail)))
    return tail12 / 12.0 + tail24 / 24.0
