"""Full-scale FALCON-512/1024 integration tests (slower)."""

import hashlib

import pytest

from repro.falcon import FalconParams, keygen, sign, verify
from repro.falcon.codec import encode_public_key, encode_secret_key
from repro.math import poly


@pytest.mark.slow
class TestFalcon512:
    @pytest.fixture(scope="class")
    def kp(self):
        return keygen(FalconParams.get(512), seed=b"full-512")

    def test_keygen_valid(self, kp):
        sk, pk = kp
        lhs = poly.sub(poly.mul(sk.f, sk.big_g), poly.mul(sk.g, sk.big_f))
        assert lhs == poly.constant(12289, 512)
        # coefficient ranges from the paper: f, g within [-127, 127]
        assert max(abs(c) for c in sk.f) <= 127
        assert max(abs(c) for c in sk.g) <= 127

    def test_key_is_pinned(self, kp):
        """(f, g, F, G) and h of this seed, as produced before the ring
        product and the FFT were rewritten: keygen stays bit-identical."""
        sk, pk = kp
        fg = repr((sk.f, sk.g, sk.big_f, sk.big_g)).encode()
        assert hashlib.sha256(fg).hexdigest() == (
            "21844287a88f036c3bc5b7a6096ec43903b8d30ecd01cb2d1e23f905c92072c5"
        )
        assert hashlib.sha256(repr(pk.h).encode()).hexdigest() == (
            "a5a0c497cc20c494922a067dee06ac269e8cb52c3b511f1498dde1b460e1fb99"
        )

    def test_sign_verify(self, kp):
        sk, pk = kp
        sig = sign(sk, b"standard-size message", seed=1)
        assert len(sig.encoded()) == 666  # spec signature length
        assert verify(pk, b"standard-size message", sig)
        assert not verify(pk, b"standard-size messagf", sig)

    def test_spec_encodings(self, kp):
        sk, pk = kp
        assert len(encode_public_key(pk)) == 897
        assert len(encode_secret_key(sk)) == 1281


@pytest.mark.slow
class TestFalcon1024:
    def test_keygen_sign_verify(self):
        sk, pk = keygen(FalconParams.get(1024), seed=b"full-1024")
        lhs = poly.sub(poly.mul(sk.f, sk.big_g), poly.mul(sk.g, sk.big_f))
        assert lhs == poly.constant(12289, 1024)
        sig = sign(sk, b"falcon-1024", seed=2)
        assert len(sig.encoded()) == 1280
        assert verify(pk, b"falcon-1024", sig)
        assert len(encode_public_key(pk)) == 1 + (1024 * 14 + 7) // 8  # 1793
