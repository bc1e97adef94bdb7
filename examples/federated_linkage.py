"""Federated search: ǫ-PPI locator + privacy-preserving record linkage.

The paper's Sec. VI-B vision end to end: an ER physician searches for an
incoming patient.  The ǫ-PPI locator narrows the network to candidate
hospitals; AuthSearch retrieves the records; then PRL (Bloom-encoded
demographics + weighted-Dice matching) links records that belong to the
same person even though the hospitals spelled the name differently --
without any hospital revealing raw demographics to the others.

Run:  python examples/federated_linkage.py
"""

import numpy as np

from repro.core import (
    AccessControl,
    ChernoffPolicy,
    InformationNetwork,
    auth_search,
    construct_epsilon_ppi,
)
from repro.linkage import BloomEncoder, RecordMatcher, link_records


def main() -> None:
    rng = np.random.default_rng(23)
    hospitals = ["st-marys", "county-general", "riverside-er", "lakeside-clinic"]
    net = InformationNetwork(len(hospitals) + 16,
                             provider_names=hospitals + [f"clinic-{i}" for i in range(16)])

    # The same patient registered under differing demographics at three
    # hospitals -- the classic master-patient-index problem.
    demographics = [
        {"first_name": "Katherine", "last_name": "O'Connor",
         "date_of_birth": "1975-06-01", "city": "Boston"},
        {"first_name": "Catherine", "last_name": "OConnor",
         "date_of_birth": "1975-06-01", "city": "Boston"},
        {"first_name": "K.", "last_name": "O'Connor",
         "date_of_birth": "1975-06-01", "city": "Boston"},
    ]
    patient = net.register_owner("katherine-oconnor", epsilon=0.7)
    for pid in (0, 1, 2):
        net.delegate(patient, pid, payload=f"chart at {hospitals[pid]}")
    # A different patient who shares a surname (a near-miss for linkage).
    other = net.register_owner("sean-oconnor", epsilon=0.4)
    net.delegate(other, 2, payload="chart at riverside-er")
    other_demo = {"first_name": "Sean", "last_name": "O'Connor",
                  "date_of_birth": "1991-03-12", "city": "Boston"}

    print("== phase 1+2: e-PPI locator + AuthSearch ==")
    result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng)
    candidates = result.index.query(patient.owner_id)
    acls = {pid: AccessControl(trusted={"er"}) for pid in range(net.n_providers)}
    search = auth_search(net, acls, "er", candidates, patient.owner_id)
    print(f"  contacted {search.contacted} providers, "
          f"{len(search.positive_providers)} returned records, "
          f"{len(search.noise_providers)} were noise")

    print("\n== phase 3: private record linkage over the retrieved charts ==")
    # Hospitals share only the HIE linkage key; demographics never leave
    # the provider in the clear -- only Bloom encodings do.
    encoder = BloomEncoder(key=b"hie-linkage-key-2026")
    encoded = [encoder.encode_record(d) for d in demographics]
    encoded.append(encoder.encode_record(other_demo))
    labels = [f"{hospitals[i]}: {demographics[i]['first_name']} "
              f"{demographics[i]['last_name']}" for i in range(3)]
    labels.append(f"{hospitals[2]}: Sean O'Connor")

    matcher = RecordMatcher()
    clusters = link_records(encoded, matcher)
    for k, cluster in enumerate(clusters):
        print(f"  patient cluster {k}:")
        for idx in cluster:
            print(f"    - {labels[idx]}")

    print("\n== pairwise scores (what the matcher saw) ==")
    for i in range(len(encoded)):
        for j in range(i + 1, len(encoded)):
            m = matcher.compare(encoded[i], encoded[j])
            print(f"  {labels[i]!r} vs {labels[j]!r}: "
                  f"score={m.score:.3f} -> {m.decision.value}")


if __name__ == "__main__":
    main()
