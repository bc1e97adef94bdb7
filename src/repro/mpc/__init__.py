"""Secure multi-party computation substrate.

From-scratch replacements for the cryptographic machinery the paper builds
on: additive secret sharing, a Boolean-circuit compiler, a
GMW-style c-party MPC engine (standing in for FairplayMP), the SecSumShare
secure-sum protocol, the CountBelow / β-selection circuits (Alg. 2), the
full secure β pipeline (Alg. 1) and the pure-MPC baseline.
"""

from repro.mpc.additive import AdditiveSharing, Share
from repro.mpc.betacalc import SecureBetaResult, secure_beta_calculation
from repro.mpc.conversion import A2BCorrelation, A2BDealer, A2BResult, a2b_convert
from repro.mpc.countbelow import (
    COIN_BITS,
    ENGINES,
    EPSILON_SCALE_BITS,
    CountBelowResult,
    SelectionResult,
    build_count_circuit,
    build_count_identity_circuit,
    build_selection_circuit,
    build_selection_identity_circuit,
    run_beta_selection,
    run_count_below,
)
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.gmw import (
    BatchGMWEngine,
    BatchGMWResult,
    GMWEngine,
    GMWProtocol,
    GMWResult,
    GMWStats,
    PartyTranscript,
    expected_stats,
)
from repro.mpc.pure import PureMPCResult, build_pure_circuit, run_pure_beta_calculation
from repro.mpc.secsum import ProviderView, SecSumResult, SecSumShare
from repro.mpc.triples import BitTriple, SharedBitTriple, TripleDealer

__all__ = [
    "A2BCorrelation",
    "A2BDealer",
    "A2BResult",
    "AdditiveSharing",
    "BatchGMWEngine",
    "BatchGMWResult",
    "BitTriple",
    "COIN_BITS",
    "CountBelowResult",
    "ENGINES",
    "EPSILON_SCALE_BITS",
    "GMWEngine",
    "GMWProtocol",
    "GMWResult",
    "GMWStats",
    "PartyTranscript",
    "ProviderView",
    "PureMPCResult",
    "SecSumResult",
    "SecSumShare",
    "SecureBetaResult",
    "SelectionResult",
    "Share",
    "SharedBitTriple",
    "TripleDealer",
    "Zq",
    "a2b_convert",
    "build_count_circuit",
    "build_count_identity_circuit",
    "build_pure_circuit",
    "build_selection_circuit",
    "build_selection_identity_circuit",
    "default_modulus_for_sum",
    "expected_stats",
    "run_beta_selection",
    "run_count_below",
    "run_pure_beta_calculation",
    "secure_beta_calculation",
]
