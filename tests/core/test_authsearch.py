"""Tests for AuthSearch (phase 2 of the two-phase search)."""

import pytest

from repro.core.authsearch import AccessControl, auth_search
from repro.core.errors import AccessDenied, ModelError


@pytest.fixture
def acls(hospital_network):
    """Doctor may read celebrity records at hospital 2 only; ER is trusted
    everywhere."""
    acls = {pid: AccessControl() for pid in range(5)}
    celeb = hospital_network.owner_by_name("celebrity")
    acls[2].grant("dr-jones", celeb.owner_id)
    for pid in range(5):
        acls[pid].trusted.add("er-team")
    return acls


class TestAccessControl:
    def test_grant_and_authorize(self):
        acl = AccessControl()
        acl.grant("s", 3)
        assert acl.authorize("s", 3)
        assert not acl.authorize("s", 4)
        assert not acl.authorize("other", 3)

    def test_trusted_reads_everything(self):
        acl = AccessControl(trusted={"er"})
        assert acl.authorize("er", 123)


class TestAuthSearch:
    def test_finds_records_where_authorized(self, hospital_network, acls):
        celeb = hospital_network.owner_by_name("celebrity")
        result = auth_search(
            hospital_network, acls, "dr-jones", [0, 1, 2], celeb.owner_id
        )
        assert result.found
        assert result.positive_providers == [2]
        assert result.records[0].payload == "oncology record"

    def test_denied_providers_recorded(self, hospital_network, acls):
        celeb = hospital_network.owner_by_name("celebrity")
        result = auth_search(
            hospital_network, acls, "dr-jones", [0, 1, 2], celeb.owner_id
        )
        assert set(result.denied_providers) == {0, 1}

    def test_noise_providers_recorded(self, hospital_network, acls):
        """Contacted-but-empty providers are the PPI's privacy noise."""
        celeb = hospital_network.owner_by_name("celebrity")
        result = auth_search(
            hospital_network, acls, "er-team", [0, 1, 2, 3], celeb.owner_id
        )
        assert result.positive_providers == [2]
        assert set(result.noise_providers) == {0, 1, 3}
        assert result.contacted == 4

    def test_strict_mode_raises(self, hospital_network, acls):
        celeb = hospital_network.owner_by_name("celebrity")
        with pytest.raises(AccessDenied):
            auth_search(
                hospital_network,
                acls,
                "dr-jones",
                [0],
                celeb.owner_id,
                strict=True,
            )

    def test_trusted_searcher_full_flow(self, hospital_network, acls):
        frequent = hospital_network.owner_by_name("frequent-flyer")
        result = auth_search(
            hospital_network, acls, "er-team", list(range(5)),
            frequent.owner_id,
        )
        assert len(result.records) == 5
        assert result.positive_providers == list(range(5))

    def test_empty_provider_list(self, hospital_network, acls):
        result = auth_search(hospital_network, acls, "er-team", [], 0)
        assert not result.found
        assert result.contacted == 0

    def test_unknown_owner_rejected(self, hospital_network, acls):
        with pytest.raises(ModelError):
            auth_search(hospital_network, acls, "er-team", [0], 99)

    def test_unknown_provider_rejected(self, hospital_network, acls):
        with pytest.raises(ModelError):
            auth_search(hospital_network, acls, "er-team", [42], 0)

    def test_bool_ids_rejected(self, hospital_network, acls):
        """True is neither owner 1 nor provider 1."""
        with pytest.raises(ModelError):
            auth_search(hospital_network, acls, "er-team", [0], True)
        with pytest.raises(ModelError):
            auth_search(hospital_network, acls, "er-team", [True], 0)

    def test_missing_acl_denies_by_default(self, hospital_network):
        result = auth_search(hospital_network, {}, "nobody", [0], 0)
        assert result.denied_providers == [0]
