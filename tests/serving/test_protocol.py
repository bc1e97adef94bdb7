"""Message-schema tests for the serving wire protocol."""

import pytest

from repro.serving.protocol import (
    RemoteError,
    error_response,
    ok_response,
    raise_for_response,
)


class TestMessages:
    def test_ok_response_passes_through(self):
        response = ok_response(3, providers=[1, 2])
        assert raise_for_response(response) is response

    def test_error_response_raises_remote_error_with_detail(self):
        response = error_response(3, "wrong-shard", "owner 5 not here", shard=2)
        with pytest.raises(RemoteError) as err:
            raise_for_response(response)
        assert err.value.code == "wrong-shard"
        assert err.value.detail == {"shard": 2}

    def test_missing_fields_default_to_internal(self):
        with pytest.raises(RemoteError) as err:
            raise_for_response({"id": 1, "ok": False})
        assert err.value.code == "internal"
