"""Tests for posting-element packing (paper §5.2, §7.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.posting import (
    PackingSpec,
    PostingElement,
    PostingElementCodec,
    new_element_id,
)
from repro.errors import PackingError
from repro.secretsharing.field import DEFAULT_PRIME


class TestPackingSpec:
    def test_default_secret_is_64_bits(self):
        assert PackingSpec().secret_bits == 64

    def test_default_secret_fits_default_prime(self):
        assert (1 << PackingSpec().secret_bits) <= DEFAULT_PRIME

    def test_storage_overhead_is_the_papers_1_5(self):
        spec = PackingSpec()
        assert spec.zerber_element_bits / spec.plain_element_bits == pytest.approx(1.5)

    def test_rejects_zero_width_fields(self):
        with pytest.raises(PackingError):
            PackingSpec(doc_id_bits=0)
        with pytest.raises(PackingError):
            PackingSpec(tf_bits=0)

    def test_rejects_tiny_element_ids(self):
        with pytest.raises(PackingError):
            PackingSpec(element_id_bits=8)

    def test_field_maxima(self):
        spec = PackingSpec(doc_id_bits=4, term_id_bits=3, tf_bits=2)
        assert spec.max_doc_id == 15
        assert spec.max_term_id == 7
        assert spec.tf_scale == 3


class TestPostingElement:
    def test_rejects_negative_ids(self):
        with pytest.raises(PackingError):
            PostingElement(doc_id=-1, term_id=0, tf=0.5)
        with pytest.raises(PackingError):
            PostingElement(doc_id=0, term_id=-1, tf=0.5)

    def test_rejects_out_of_range_tf(self):
        with pytest.raises(PackingError):
            PostingElement(doc_id=0, term_id=0, tf=0.0)
        with pytest.raises(PackingError):
            PostingElement(doc_id=0, term_id=0, tf=1.5)


class TestCodec:
    @pytest.fixture()
    def codec(self):
        return PostingElementCodec()

    def test_roundtrip_ids_lossless(self, codec):
        element = PostingElement(doc_id=123456, term_id=9876, tf=0.25)
        decoded = codec.unpack(codec.pack(element))
        assert decoded.doc_id == 123456
        assert decoded.term_id == 9876

    def test_tf_quantization_error_bounded(self, codec):
        for tf in (0.001, 0.1, 0.33333, 0.5, 0.9999, 1.0):
            element = PostingElement(doc_id=1, term_id=1, tf=tf)
            decoded = codec.unpack(codec.pack(element))
            assert abs(decoded.tf - tf) <= 1.0 / codec.spec.tf_scale

    def test_tiny_tf_rounds_up_not_to_zero(self, codec):
        # A tf below half a quantum must still decode (floor at 1 quantum).
        element = PostingElement(doc_id=1, term_id=1, tf=1e-9)
        decoded = codec.unpack(codec.pack(element))
        assert decoded.tf > 0

    def test_packed_fits_secret_bits(self, codec):
        element = PostingElement(
            doc_id=codec.spec.max_doc_id,
            term_id=codec.spec.max_term_id,
            tf=1.0,
        )
        assert codec.pack(element) < (1 << codec.spec.secret_bits)

    def test_doc_id_overflow_raises(self, codec):
        with pytest.raises(PackingError):
            codec.pack(
                PostingElement(
                    doc_id=codec.spec.max_doc_id + 1, term_id=0, tf=0.5
                )
            )

    def test_term_id_overflow_raises(self, codec):
        with pytest.raises(PackingError):
            codec.pack(
                PostingElement(
                    doc_id=0, term_id=codec.spec.max_term_id + 1, tf=0.5
                )
            )

    def test_unpack_rejects_oversized_value(self, codec):
        with pytest.raises(PackingError):
            codec.unpack(1 << codec.spec.secret_bits)

    def test_unpack_rejects_negative(self, codec):
        with pytest.raises(PackingError):
            codec.unpack(-1)

    def test_unpack_rejects_zero_tf_field(self, codec):
        # doc=1, term=1, tf-field = 0 is a corrupt element (tf can't be 0).
        corrupt = (1 << (codec.spec.term_id_bits + codec.spec.tf_bits)) | (
            1 << codec.spec.tf_bits
        )
        with pytest.raises(PackingError):
            codec.unpack(corrupt)

    def test_custom_spec_roundtrip(self):
        codec = PostingElementCodec(
            PackingSpec(doc_id_bits=10, term_id_bits=8, tf_bits=6)
        )
        element = PostingElement(doc_id=1000, term_id=255, tf=0.75)
        decoded = codec.unpack(codec.pack(element))
        assert (decoded.doc_id, decoded.term_id) == (1000, 255)


@settings(max_examples=120, deadline=None)
@given(
    doc_id=st.integers(min_value=0, max_value=(1 << 30) - 1),
    term_id=st.integers(min_value=0, max_value=(1 << 22) - 1),
    tf_quanta=st.integers(min_value=1, max_value=(1 << 12) - 1),
)
def test_property_pack_unpack_roundtrip(doc_id, term_id, tf_quanta):
    """Packing is lossless on ids and exact on quantized tf values."""
    codec = PostingElementCodec()
    tf = tf_quanta / codec.spec.tf_scale
    element = PostingElement(doc_id=doc_id, term_id=term_id, tf=tf)
    decoded = codec.unpack(codec.pack(element))
    assert decoded.doc_id == doc_id
    assert decoded.term_id == term_id
    assert decoded.tf == pytest.approx(tf, abs=1e-12)


def _outside(maximum: int):
    """An id below 0 or above ``maximum``."""
    return st.one_of(
        st.integers(max_value=-1), st.integers(min_value=maximum + 1)
    )


@st.composite
def _document_columns(draw, valid: bool):
    """A PackingSpec and one document's (doc_id, term_ids, tfs) columns;
    with ``valid=False`` exactly one value is out of range."""
    spec = PackingSpec(
        doc_id_bits=draw(st.integers(1, 40)),
        term_id_bits=draw(st.integers(1, 30)),
        tf_bits=draw(st.integers(1, 16)),
    )
    size = draw(st.integers(0 if valid else 1, 30))
    doc_id = draw(st.integers(0, spec.max_doc_id))
    term_ids = draw(
        st.lists(
            st.integers(0, spec.max_term_id), min_size=size, max_size=size
        )
    )
    tfs = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True),
            min_size=size,
            max_size=size,
        )
    )
    if not valid:
        at = draw(st.integers(0, size - 1))
        field = draw(st.sampled_from(["doc_id", "term_id", "tf"]))
        if field == "doc_id":
            doc_id = draw(_outside(spec.max_doc_id))
        elif field == "term_id":
            term_ids[at] = draw(_outside(spec.max_term_id))
        else:
            tfs[at] = draw(
                st.one_of(
                    st.just(float("nan")),
                    st.floats(max_value=0.0, allow_nan=False),
                    st.floats(1.0, exclude_min=True, allow_nan=False),
                )
            )
    return spec, doc_id, term_ids, tfs


@settings(max_examples=200, deadline=None)
@given(columns=_document_columns(valid=True))
def test_property_pack_many_equals_per_element_pack(columns):
    """pack_many is pack over each element, value for value, at any
    width — and both are the per-element layout written out here."""
    spec, doc_id, term_ids, tfs = columns
    codec = PostingElementCodec(spec)
    scale = spec.tf_scale
    reference = [
        (((doc_id << spec.term_id_bits) | term_id) << spec.tf_bits)
        | min(max(round(tf * scale), 1), scale)
        for term_id, tf in zip(term_ids, tfs)
    ]
    assert codec.pack_many(doc_id, term_ids, tfs) == reference
    assert [
        codec.pack(PostingElement(doc_id, term_id, tf))
        for term_id, tf in zip(term_ids, tfs)
    ] == reference


@settings(max_examples=200, deadline=None)
@given(columns=_document_columns(valid=False))
def test_property_pack_many_rejects_what_pack_rejects(columns):
    """One out-of-range doc id, term id or tf (NaN included) is a
    PackingError from both pack_many and the per-element path."""
    spec, doc_id, term_ids, tfs = columns
    codec = PostingElementCodec(spec)
    with pytest.raises(PackingError):
        codec.pack_many(doc_id, term_ids, tfs)
    with pytest.raises(PackingError):
        for term_id, tf in zip(term_ids, tfs):
            codec.pack(PostingElement(doc_id, term_id, tf))


class TestElementIds:
    def test_respects_bit_width(self):
        rng = random.Random(0)
        for _ in range(100):
            assert new_element_id(rng, bits=32) < (1 << 32)

    def test_deterministic_under_seed(self):
        assert new_element_id(random.Random(7)) == new_element_id(
            random.Random(7)
        )
