"""Healthcare Information Exchange scenario (paper Sec. I, Fig. 1).

An unconscious patient arrives at an emergency room.  The ER physician uses
the record locator service (the ǫ-PPI hosted by an untrusted third party) to
find which hospitals may hold the patient's history, then runs the
authenticated second-phase search against each candidate.

Demonstrates the full two-phase flow -- QueryPPI then AuthSearch -- plus the
privacy asymmetry between a celebrity patient and an average one.

Run:  python examples/hie_record_locator.py
"""

import numpy as np

from repro import (
    AccessControl,
    ChernoffPolicy,
    InformationNetwork,
    auth_search,
    construct_epsilon_ppi,
)


def build_network() -> InformationNetwork:
    hospitals = [
        "general-hospital",
        "county-medical",
        "womens-health-center",
        "st-marys",
        "university-clinic",
        "sports-medicine-institute",
        "riverside-er",
        "oncology-center",
    ] + [f"community-clinic-{i:02d}" for i in range(32)]
    net = InformationNetwork(len(hospitals), provider_names=hospitals)

    # A sports celebrity: any visit leaking to the press is a story.
    celebrity = net.register_owner("famous-athlete", epsilon=0.9)
    net.delegate(celebrity, 5, payload="knee surgery 2024")
    net.delegate(celebrity, 7, payload="screening 2025")

    # An average patient with moderate privacy wishes.
    patient = net.register_owner("jane-doe", epsilon=0.4)
    net.delegate(patient, 0, payload="annual checkup")
    net.delegate(patient, 1, payload="broken arm")

    # A chronic patient seen nearly everywhere (a *common identity*).
    chronic = net.register_owner("chronic-patient", epsilon=0.6)
    for pid in range(len(hospitals)):
        net.delegate(chronic, pid, payload=f"visit at {hospitals[pid]}")

    # Background population so the noise has somewhere to come from.
    for i in range(60):
        owner = net.register_owner(f"patient-{i:03d}", epsilon=0.3)
        net.delegate(owner, i % len(hospitals), payload="routine visit")
    return net


def main() -> None:
    rng = np.random.default_rng(7)
    net = build_network()

    print("== ConstructPPI (collective, provider-side) ==")
    result = construct_epsilon_ppi(net, ChernoffPolicy(gamma=0.9), rng)
    for name in ("famous-athlete", "jane-doe", "chronic-patient", "patient-000"):
        owner = net.owner_by_name(name)
        listed = result.index.result_size(owner.owner_id)
        print(
            f"  {owner.name:<16} eps={owner.epsilon:<5} "
            f"published list size: {listed}/{net.n_providers}"
        )

    print("\n== Phase 1: QueryPPI at the (untrusted) locator service ==")
    athlete = net.owner_by_name("famous-athlete")
    candidates = result.index.query(athlete.owner_id)
    names = [net.providers[p].name for p in candidates]
    print(f"  candidates for {athlete.name}: {names}")

    print("\n== Phase 2: AuthSearch against each candidate ==")
    # Every hospital trusts the break-glass ER role.
    acls = {
        pid: AccessControl(trusted={"er-physician"}) for pid in range(net.n_providers)
    }
    search = auth_search(
        net, acls, "er-physician", candidates, athlete.owner_id
    )
    print(f"  contacted {search.contacted} hospitals")
    print(
        "  records found at:",
        [net.providers[p].name for p in search.positive_providers],
    )
    print(
        f"  noise (false-positive) hospitals contacted: {len(search.noise_providers)}"
    )
    for record in search.records:
        print(f"    - {record.payload}")

    print("\n== What an attacker sees ==")
    conf = result.report.attacker_confidences
    for name in ("famous-athlete", "jane-doe", "chronic-patient"):
        owner = net.owner_by_name(name)
        bound = 1 - owner.epsilon
        print(
            f"  {owner.name:<16} attack confidence {conf[owner.owner_id]:.3f} "
            f"(personal bound {bound:.2f})"
        )
    print(
        "  (the chronic patient's row is a broadcast; its protection is"
        " identity anonymity inside the mixed set, not false positives)"
    )


if __name__ == "__main__":
    main()
