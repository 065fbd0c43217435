"""The scheme registry: persistency schemes as self-describing plugins.

The paper's whole argument is a comparison space — BBB (memory-side and
processor-side), eADR, ADR+strict PMEM, BSP, BEP, no-persistency — and
every layer of this repository consumes that space: construction
(:func:`repro.api.build_system`), recovery contracts
(:mod:`repro.core.recovery`), the CLI, the experiment drivers, the model
checker, and the fault campaigns.  This module is the single place where
a scheme's *identity* lives.  Each scheme is described by a
:class:`SchemeInfo` capability descriptor and registered with
:func:`register_scheme`; everything else dispatches on the registry
instead of on name literals.

Scheme-name string literals are allowed **only in this file** — a lint
test (``tests/test_scheme_literal_lint.py``) walks the AST of every other
module under ``src/repro`` and fails on any stray literal, so the
capability-driven dispatch cannot silently regress.

Adding a scheme — including from entirely outside ``src/repro`` (see
``examples/custom_scheme.py``) — is one registration::

    from repro.core.registry import MODEL_STRICT, register_scheme

    @register_scheme(
        "my-scheme", cls=MyScheme, persistency_model=MODEL_STRICT,
        exact_durability=True, has_persist_buffer=True, battery_domain=True,
        doc="what the scheme guarantees and how",
    )
    def _build_my_scheme(cls, entries):
        return cls(entries=entries)

After that, ``build_system("my-scheme")`` builds it, the CLI accepts it,
``check_scheme_contract`` applies the contract its declaration derives,
and the crash checker / fault campaigns / litmus battery check it — with
zero core edits.

A scheme's crash semantics is declared once: ``persistency_model`` (the
formal model its post-crash states must stay inside) plus
``exact_durability`` (every committed persist survives a crash).  The
crash checker's contract (:attr:`SchemeInfo.contract`) derives from those
two; nothing declares it separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple, Type

from repro.core import bsp as _bsp
from repro.core import persistency as _p
from repro.sim.config import BBBConfig

__all__ = [
    "ADR",
    "BBB",
    "BBB_PROC",
    "BEP",
    "BSP",
    "CONTRACT_EPOCH",
    "CONTRACT_EXACT",
    "CONTRACT_PREFIX",
    "DEFAULT_SCHEME",
    "EADR",
    "MODEL_EPOCH",
    "MODEL_PX86_TSO",
    "MODEL_STRICT",
    "NONE",
    "ORDERING_ALL",
    "ORDERING_EPOCH",
    "ORDERING_FENCE",
    "ORDERING_FLUSH",
    "ORDERING_KINDS",
    "PERSISTENCY_MODELS",
    "PMEM",
    "PMEM_STRICT",
    "POP_FLUSH",
    "POP_STORE_COMMIT",
    "SchemeInfo",
    "baseline_scheme",
    "canonical_name",
    "iter_schemes",
    "register_scheme",
    "scheme_for_class",
    "scheme_info",
    "scheme_names",
    "unregister_scheme",
]

# ----------------------------------------------------------------------
# Canonical names and capability vocabularies
# ----------------------------------------------------------------------

#: Canonical scheme names.  Every other module refers to schemes through
#: these constants (or through registry lookups) — never through literals.
BBB = "bbb"
BBB_PROC = "bbb-proc"
EADR = "eadr"
PMEM = "pmem"
PMEM_STRICT = "pmem-strict"  # alias of PMEM (the scheme class's instance name)
ADR = "adr"  # alias of PMEM (the platform name papers compare against)
BSP = "bsp"
BEP = "bep"
NONE = "none"

#: The scheme front-ends default to (the paper's proposal).
DEFAULT_SCHEME = BBB

#: Consistency-contract kinds (the keys of
#: :data:`repro.core.recovery.CONTRACT_DOCS`), derived per scheme by
#: :attr:`SchemeInfo.contract`.
CONTRACT_EXACT = "exact"
CONTRACT_PREFIX = "prefix"
CONTRACT_EPOCH = "epoch"

#: Point-of-persistence locations.  ``store-commit`` schemes claim a store
#: durable the moment it commits (a battery covers the rest of the path);
#: ``flush`` schemes claim it only once its flush is accepted by the ADR
#: domain (WPQ), so their persist claim is the *performed* set.
POP_STORE_COMMIT = "store-commit"
POP_FLUSH = "flush"
_POP_LOCATIONS = (POP_STORE_COMMIT, POP_FLUSH)

#: Formal persistency-model classes (the semantics classes of the litmus
#: battery, :mod:`repro.litmus`).  A scheme *declares* the model its
#: observable crash behaviors must stay inside; the battery enforces the
#: declaration:
#:
#: ``MODEL_STRICT``
#:     strict persistency — persists happen in visibility (TSO) order,
#:     possibly lagging behind it: every post-crash durable state is the
#:     image of a prefix of some TSO interleaving of the per-core store
#:     sequences.  BBB's PoV == PoP claim, eADR, strict PMEM, and BSP's
#:     "illusion of strict persistency" all sit here.
#: ``MODEL_PX86_TSO``
#:     Px86-TSO (Khyzha & Lahav) — persist order is constrained only by
#:     per-cache-line coherence order and explicit ``flush ; fence``
#:     chains; unflushed stores persist in any order.  The ADR platform
#:     ("none": durability via writebacks plus honoured clwb/sfence).
#: ``MODEL_EPOCH``
#:     epoch persistency — per core, every store of epoch N is durable
#:     before any store of epoch N+1 persists; within an epoch stores
#:     reorder and coalesce freely (any subset may be durable).  BEP.
MODEL_STRICT = "strict"
MODEL_PX86_TSO = "px86-tso"
MODEL_EPOCH = "epoch"
PERSISTENCY_MODELS = (MODEL_STRICT, MODEL_PX86_TSO, MODEL_EPOCH)

#: Ordering-contract vocabulary: the persist-instrumentation op kinds a
#: scheme's hardware contract can *subsume*.  A scheme lists the kinds
#: whose removal provably cannot enlarge its reachable durable-state set
#: under the persistency model it declares; the optimizer
#: (:mod:`repro.opt`) elides exactly those kinds and nothing else.
#:
#: ``ORDERING_FLUSH`` / ``ORDERING_FENCE``
#:     clwb-style writebacks and sfence-style drains.  Subsumed by
#:     battery-domain store-commit schemes (bbb, bbb-proc, eadr): PoV ==
#:     PoP, so the durable image never depends on flushes the battery
#:     already covers.  *Required* by schemes whose durability or ordering
#:     mechanism they are: pmem (PoP sits at the flush), bsp (the forced
#:     drains bound the volatile buffers' un-persisted suffix), and
#:     ``none`` (under Px86-TSO, flush;fence chains are the only persist
#:     ordering control — eliding them enlarges the reachable state set).
#: ``ORDERING_EPOCH``
#:     epoch-boundary markers.  Required only by epoch-contract schemes
#:     (bep: boundaries are the recovery granularity); meaningless — and
#:     therefore subsumable — everywhere else.
#:
#: The empty tuple (the default for plugins that do not declare one) is
#: maximally conservative: nothing is subsumed, the optimizer's
#: scheme-gated passes elide nothing.
ORDERING_FLUSH = "flush"
ORDERING_FENCE = "fence"
ORDERING_EPOCH = "epoch"
ORDERING_KINDS = (ORDERING_FLUSH, ORDERING_FENCE, ORDERING_EPOCH)
#: Convenience: the contract of a scheme whose hardware makes every kind
#: of persist instrumentation redundant by construction.
ORDERING_ALL = ORDERING_KINDS


# ----------------------------------------------------------------------
# The capability descriptor
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeInfo:
    """Everything the rest of the system needs to know about a scheme.

    The descriptor is *capabilities, not names*, and each fact is
    declared once: the litmus battery reads ``persistency_model``;
    recovery reads ``pop`` and the ``contract`` derived from
    ``persistency_model`` and ``exact_durability``; sweep drivers read
    ``entries`` applicability off ``has_persist_buffer``; the fault
    campaign reads ``battery_domain``; and comparison front-ends read
    ``display`` / ``crash_consistent``.  Whether the store buffers are
    battery-backed is the scheme class's ``battery_backed_sb`` attribute,
    which the hierarchy reads directly.
    """

    #: Canonical name (stable string; what the CLI and reports use).
    name: str
    #: The :class:`~repro.core.persistency.PersistencyScheme` subclass.
    cls: Type["_p.PersistencyScheme"]
    #: ``factory(cls, entries, **kwargs) -> PersistencyScheme``.  ``cls``
    #: is passed explicitly so checker mutants can substitute a subclass.
    factory: Callable[..., "_p.PersistencyScheme"]
    #: The formal persistency-model class the scheme's observable crash
    #: behaviors must stay inside (one of :data:`PERSISTENCY_MODELS`).
    #: The litmus battery (``repro litmus``) enforces this declaration: a
    #: scheme observing a post-crash durable state its declared model
    #: forbids is a hard conformance failure.
    persistency_model: str
    #: True when every claimed persist is durable byte-for-byte at any
    #: crash point (PoV == PoP, or PoP at the flush for ``pop=flush``):
    #: the exact-durability oracle and the golden differential apply.
    exact_durability: bool = False
    #: Point-of-persistence location (one of ``POP_STORE_COMMIT`` /
    #: ``POP_FLUSH``); see :func:`repro.core.recovery.claimed_persists`.
    pop: str = POP_STORE_COMMIT
    #: Whether the scheme has a persist buffer that ``entries`` sizes.
    has_persist_buffer: bool = False
    #: Whether a battery covers scheme state (bbPB entries, cache levels),
    #: i.e. whether battery-domain fault sites apply to it.
    battery_domain: bool = False
    #: False for schemes that exist to demonstrate inconsistency (``none``)
    #: — comparison drivers skip them.
    crash_consistent: bool = True
    #: The persist-instrumentation op kinds (members of
    #: :data:`ORDERING_KINDS`) this scheme's hardware contract subsumes —
    #: i.e. whose removal cannot enlarge the reachable durable-state set
    #: under the scheme's declared persistency model.  The optimizer's
    #: scheme-gated elision passes (:mod:`repro.opt.passes`) fire exactly
    #: on these kinds; the default ``()`` subsumes nothing, so undeclared
    #: plugins get zero elision rather than unsound elision.
    ordering_contract: Tuple[str, ...] = ()
    #: Alternate accepted names (e.g. the scheme object's instance name).
    aliases: Tuple[str, ...] = ()
    #: Scheme-specific keyword arguments the factory accepts.
    accepted_kwargs: Tuple[str, ...] = ()
    #: Human-facing label used by comparison tables/figures.
    display: str = ""
    #: One-line description of the scheme.
    doc: str = ""
    #: True for the schemes shipped by this package; builtins cannot be
    #: unregistered and define the canonical comparison order.
    builtin: bool = False

    @property
    def pop_at_flush(self) -> bool:
        """True when the PoP sits at flush/WPQ acceptance — the scheme
        claims only *performed* persists durable at a crash point."""
        return self.pop == POP_FLUSH

    @property
    def contract(self) -> str:
        """The crash checker's consistency contract, derived from the
        declaration: ``exact`` for exact durability, ``epoch`` for the
        epoch model, ``prefix`` (per-core prefix consistency) otherwise —
        which for a Px86-TSO scheme (``none``) is a stand-in until a
        Px86-TSO decider exists."""
        if self.exact_durability:
            return CONTRACT_EXACT
        if self.persistency_model == MODEL_EPOCH:
            return CONTRACT_EPOCH
        return CONTRACT_PREFIX

    def subsumes_ordering(self, kind: str) -> bool:
        """True when the scheme's hardware contract subsumes
        persist-instrumentation ops of ``kind`` (a member of
        :data:`ORDERING_KINDS`) — the optimizer may elide them."""
        return kind in self.ordering_contract

    def build_scheme(
        self,
        entries: int = 32,
        scheme_cls: Optional[type] = None,
        **kwargs,
    ) -> "_p.PersistencyScheme":
        """Construct the scheme object.  ``scheme_cls`` substitutes a
        subclass (checker mutants); unknown keywords raise ``TypeError``
        with the same message shape :func:`repro.api.build_system` always
        used."""
        unexpected = sorted(set(kwargs) - set(self.accepted_kwargs))
        if unexpected:
            raise TypeError(
                f"unexpected keyword arguments for scheme {self.name!r}: "
                f"{', '.join(unexpected)}"
            )
        if scheme_cls is not None:
            _check_crash_drain(self.name, scheme_cls)
        return self.factory(scheme_cls or self.cls, entries, **kwargs)


def _check_crash_drain(name: str, cls: type) -> None:
    """Schemes declare what survives a crash through ``battery_residue``:
    the crash-exploration kernel reads it at every crash point instead of
    crashing, so a ``crash_drain`` override would make single-pass
    exploration silently disagree with real crashes."""
    if getattr(cls, "crash_drain", None) is not _p.PersistencyScheme.crash_drain:
        raise TypeError(
            f"scheme {name!r}: class {cls.__name__} overrides crash_drain; "
            f"override battery_residue() (what the battery moves to NVMM, "
            f"read without side effects) and, for volatile buffers, "
            f"clear_buffers() instead"
        )


# ----------------------------------------------------------------------
# Registration and lookup
# ----------------------------------------------------------------------

#: Canonical name -> SchemeInfo, in registration (= comparison) order.
_REGISTRY: Dict[str, SchemeInfo] = {}
#: Any accepted name (canonical or alias) -> canonical name.
_NAMES: Dict[str, str] = {}


def register_scheme(
    name: str,
    *,
    cls: type,
    persistency_model: str,
    exact_durability: bool = False,
    pop: str = POP_STORE_COMMIT,
    has_persist_buffer: bool = False,
    battery_domain: bool = False,
    crash_consistent: bool = True,
    ordering_contract: Tuple[str, ...] = (),
    aliases: Tuple[str, ...] = (),
    accepted_kwargs: Tuple[str, ...] = (),
    display: str = "",
    doc: str = "",
    instance_name: Optional[str] = None,
    builtin: bool = False,
    replace: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator registering ``factory(cls, entries, **kwargs)`` as the
    constructor of scheme ``name``.

    The decorated factory is returned unchanged.  ``instance_name`` is
    stamped onto ``cls.name`` (default: ``name``) unless the class — not a
    base — already carries one, so scheme objects self-identify without a
    name literal in their module.  ``replace=True`` makes re-registration
    idempotent (useful when a plugin module may be imported twice);
    without it a name collision raises ``ValueError``.
    """
    if pop not in _POP_LOCATIONS:
        raise ValueError(
            f"scheme {name!r}: unknown PoP location {pop!r}; "
            f"expected one of {', '.join(_POP_LOCATIONS)}"
        )
    if persistency_model not in PERSISTENCY_MODELS:
        raise ValueError(
            f"scheme {name!r}: unknown persistency model "
            f"{persistency_model!r}; expected one of "
            f"{', '.join(PERSISTENCY_MODELS)}"
        )
    unknown_ordering = sorted(set(ordering_contract) - set(ORDERING_KINDS))
    if unknown_ordering:
        raise ValueError(
            f"scheme {name!r}: unknown ordering-contract kinds "
            f"{', '.join(repr(k) for k in unknown_ordering)}; "
            f"expected members of {', '.join(ORDERING_KINDS)}"
        )

    _check_crash_drain(name, cls)

    def decorator(factory: Callable) -> Callable:
        info = SchemeInfo(
            name=name,
            cls=cls,
            factory=factory,
            persistency_model=persistency_model,
            exact_durability=exact_durability,
            pop=pop,
            has_persist_buffer=has_persist_buffer,
            battery_domain=battery_domain,
            crash_consistent=crash_consistent,
            ordering_contract=tuple(ordering_contract),
            aliases=tuple(aliases),
            accepted_kwargs=tuple(accepted_kwargs),
            display=display or name,
            doc=doc,
            builtin=builtin,
        )
        _add(info, replace=replace)
        if "name" not in vars(cls):
            # First registration of this class names its instances; later
            # registrations sharing the class (bbb-proc reuses BBBScheme)
            # and subclasses registered by other entries leave it alone.
            cls.name = instance_name or name
        return factory

    return decorator


def _add(info: SchemeInfo, replace: bool = False) -> None:
    for accepted in (info.name,) + info.aliases:
        owner = _NAMES.get(accepted)
        if owner is not None and not (replace and owner == info.name):
            raise ValueError(
                f"scheme name {accepted!r} is already registered "
                f"(canonical scheme {owner!r}); pass replace=True to "
                f"re-register"
            )
    _REGISTRY[info.name] = info
    for accepted in (info.name,) + info.aliases:
        _NAMES[accepted] = info.name


def unregister_scheme(name: str) -> SchemeInfo:
    """Remove a plugin scheme; builtins refuse.  Returns the removed info
    (mainly for tests that register temporary schemes)."""
    info = scheme_info(name)
    if info.builtin:
        raise ValueError(f"cannot unregister builtin scheme {info.name!r}")
    del _REGISTRY[info.name]
    for accepted in (info.name,) + info.aliases:
        _NAMES.pop(accepted, None)
    return info


def scheme_info(name: str) -> SchemeInfo:
    """Resolve any accepted scheme name (canonical or alias) to its
    :class:`SchemeInfo`; unknown names raise ``ValueError``."""
    canonical = _NAMES.get(str(name))
    if canonical is None:
        raise ValueError(
            f"unknown scheme {name!r}; valid schemes: "
            f"{', '.join(scheme_names())}"
        )
    return _REGISTRY[canonical]


def canonical_name(name: str) -> str:
    """Canonicalise any accepted scheme name (alias-resolving)."""
    return scheme_info(name).name


def iter_schemes() -> Iterator[SchemeInfo]:
    """All registered schemes, builtins first, in registration order —
    the canonical comparison order of the paper's figures."""
    return iter(tuple(_REGISTRY.values()))


def scheme_names(include_aliases: bool = False) -> Tuple[str, ...]:
    """Registered scheme names in canonical order; with
    ``include_aliases`` each scheme's aliases follow its canonical name."""
    names = []
    for info in iter_schemes():
        names.append(info.name)
        if include_aliases:
            names.extend(info.aliases)
    return tuple(names)


def baseline_scheme() -> SchemeInfo:
    """The scheme comparison front-ends normalise against: eADR, the
    paper's "Optimal" baseline."""
    return scheme_info(EADR)


def scheme_for_class(cls: type) -> SchemeInfo:
    """The scheme a class (or subclass — e.g. a checker mutant) belongs
    to.  Exact class matches win; otherwise the first registered scheme
    whose class is a base of ``cls``."""
    for info in iter_schemes():
        if info.cls is cls:
            return info
    for info in iter_schemes():
        if issubclass(cls, info.cls):
            return info
    raise ValueError(f"no registered scheme for class {cls.__name__!r}")


# ----------------------------------------------------------------------
# The builtin comparison space (Fig. 7 / Tables I-II), in canonical order
# ----------------------------------------------------------------------

@register_scheme(
    BBB,
    cls=_p.BBBScheme,
    persistency_model=MODEL_STRICT,
    exact_durability=True,
    pop=POP_STORE_COMMIT,
    has_persist_buffer=True,
    battery_domain=True,
    accepted_kwargs=("drain_threshold",),
    ordering_contract=ORDERING_ALL,
    display="BBB",
    doc="memory-side battery-backed persist buffer (the paper's design)",
    builtin=True,
)
def _build_bbb(cls, entries, drain_threshold=BBBConfig.drain_threshold):
    return cls(BBBConfig(
        entries=entries,
        drain_threshold=drain_threshold,
        memory_side=True,
    ))


@register_scheme(
    BBB_PROC,
    cls=_p.BBBScheme,
    persistency_model=MODEL_STRICT,
    exact_durability=True,
    pop=POP_STORE_COMMIT,
    has_persist_buffer=True,
    battery_domain=True,
    accepted_kwargs=("coalesce_consecutive",),
    ordering_contract=ORDERING_ALL,
    display="BBB (proc-side)",
    doc="processor-side bbPB (Section V-C baseline)",
    builtin=True,
)
def _build_bbb_proc(cls, entries, coalesce_consecutive=True):
    return cls(BBBConfig(
        entries=entries,
        memory_side=False,
        proc_coalesce_consecutive=coalesce_consecutive,
    ))


@register_scheme(
    EADR,
    cls=_p.EADR,
    persistency_model=MODEL_STRICT,
    exact_durability=True,
    pop=POP_STORE_COMMIT,
    battery_domain=True,
    ordering_contract=ORDERING_ALL,
    display="Optimal (eADR)",
    doc='whole-hierarchy battery, the "Optimal" line of Fig. 7',
    builtin=True,
)
def _build_eadr(cls, entries):
    return cls()


@register_scheme(
    PMEM,
    cls=_p.StrictPMEM,
    persistency_model=MODEL_STRICT,
    exact_durability=True,
    pop=POP_FLUSH,
    aliases=(PMEM_STRICT, ADR),
    instance_name=PMEM_STRICT,
    ordering_contract=(ORDERING_EPOCH,),
    display="PMEM (strict)",
    doc="strict persistency via hardware clwb+sfence; PoP at the WPQ",
    builtin=True,
)
def _build_pmem(cls, entries):
    return cls()


@register_scheme(
    BSP,
    cls=_bsp.BSP,
    persistency_model=MODEL_STRICT,
    pop=POP_STORE_COMMIT,
    has_persist_buffer=True,
    ordering_contract=(ORDERING_EPOCH,),
    display="BSP",
    doc="bulk strict persistency (MICRO'15), volatile ordered buffers",
    builtin=True,
)
def _build_bsp(cls, entries):
    return cls(entries=entries)


@register_scheme(
    BEP,
    cls=_p.BEP,
    persistency_model=MODEL_EPOCH,
    pop=POP_STORE_COMMIT,
    has_persist_buffer=True,
    ordering_contract=(ORDERING_FLUSH, ORDERING_FENCE),
    display="BEP",
    doc="buffered epoch persistency, volatile buffers (DPO/HOPS-style)",
    builtin=True,
)
def _build_bep(cls, entries):
    return cls(entries=entries)


@register_scheme(
    NONE,
    cls=_p.NoPersistency,
    persistency_model=MODEL_PX86_TSO,
    pop=POP_STORE_COMMIT,
    crash_consistent=False,
    ordering_contract=(ORDERING_EPOCH,),
    display="no persistency",
    doc="volatile caches, no ordering control (the motivating baseline)",
    builtin=True,
)
def _build_none(cls, entries):
    return cls()
