"""repro: reproduction of "ǫ-PPI: Locator Service in Information Networks
with Personalized Privacy Preservation" (Tang, Liu, Iyengar, Lee, Zhang;
ICDCS 2014).

Quickstart::

    import numpy as np
    from repro import InformationNetwork, construct_epsilon_ppi

    net = InformationNetwork(n_providers=50)
    alice = net.register_owner("alice", epsilon=0.9)   # VIP: strong privacy
    bob = net.register_owner("bob", epsilon=0.3)       # average patient
    net.delegate(alice, 7)
    net.delegate(bob, 7)
    net.delegate(bob, 21)

    result = construct_epsilon_ppi(net, rng=np.random.default_rng(0))
    print(result.index.query_by_name("alice"))   # true + noise providers
    print(result.report.success_ratio)

``result.index`` is the published matrix ``M'`` as a
:class:`~repro.core.postings.PostingsIndex`, the one index type every
layer serves; :func:`repro.serving.snapshot.save_snapshot` writes it to
the one index file format.

Subpackages: :mod:`repro.core` (model, policies, privacy metrics),
:mod:`repro.mpc` (secret sharing, circuits, GMW, SecSumShare, CountBelow),
:mod:`repro.net` (discrete-event network simulation),
:mod:`repro.protocol` (distributed construction), :mod:`repro.baselines`,
:mod:`repro.attacks`, :mod:`repro.datasets`, :mod:`repro.analysis`.
"""

from repro.core import (
    AccessControl,
    BasicPolicy,
    BetaPolicy,
    ChernoffPolicy,
    ConstructionResult,
    IncrementedExpectationPolicy,
    InformationNetwork,
    MembershipMatrix,
    Owner,
    PostingsIndex,
    PrivacyDegree,
    PrivacyReport,
    Provider,
    Record,
    auth_search,
    construct_epsilon_ppi,
)

__version__ = "1.0.0"

__all__ = [
    "AccessControl",
    "BasicPolicy",
    "BetaPolicy",
    "ChernoffPolicy",
    "ConstructionResult",
    "IncrementedExpectationPolicy",
    "InformationNetwork",
    "MembershipMatrix",
    "Owner",
    "PostingsIndex",
    "PrivacyDegree",
    "PrivacyReport",
    "Provider",
    "Record",
    "auth_search",
    "construct_epsilon_ppi",
    "__version__",
]
