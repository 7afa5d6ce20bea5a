"""Unit and property tests for state hashing (duplicate detection, §3.2)."""

from hypothesis import given, strategies as st

from repro.dom import Element, parse_document, parse_fragment, state_hash


def doc_with_comment(comment: str):
    return parse_document(
        f"<html><body><div id='recent_comments'>{comment}</div></body></html>"
    )


class TestStateHash:
    def test_identical_documents_hash_equal(self):
        assert state_hash(doc_with_comment("hi")) == state_hash(doc_with_comment("hi"))

    def test_different_text_hashes_differ(self):
        assert state_hash(doc_with_comment("page one")) != state_hash(
            doc_with_comment("page two")
        )

    def test_attribute_change_hashes_differ(self):
        one = parse_fragment('<div class="a"></div>')[0]
        two = parse_fragment('<div class="b"></div>')[0]
        assert state_hash(one) != state_hash(two)

    def test_attribute_order_irrelevant(self):
        one = parse_fragment('<div a="1" b="2"></div>')[0]
        two = parse_fragment('<div b="2" a="1"></div>')[0]
        assert state_hash(one) == state_hash(two)

    def test_structure_matters(self):
        flat = parse_fragment("<div><p>x</p><p>y</p></div>")[0]
        nested = parse_fragment("<div><p>x<p>y</p></p></div>")[0]
        assert state_hash(flat) != state_hash(nested)

    def test_exclude_subtree(self):
        one = doc_with_comment("same")
        two = doc_with_comment("same")
        tracker = Element("img", {"id": "tracker", "src": "a.gif"})
        two.body.append_child(tracker)
        exclude = lambda e: e.id == "tracker"  # noqa: E731
        assert state_hash(one, exclude=exclude) == state_hash(two, exclude=exclude)
        assert state_hash(one) != state_hash(two)

    def test_hash_is_hex_sha256(self):
        digest = state_hash(doc_with_comment("x"))
        assert len(digest) == 64
        int(digest, 16)  # must be valid hex


# -- property-based --------------------------------------------------------

simple_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=0,
    max_size=20,
)


@given(simple_text)
def test_hash_deterministic_for_any_text(payload):
    assert state_hash(doc_with_comment(payload)) == state_hash(doc_with_comment(payload))


@given(simple_text, simple_text)
def test_hash_separates_different_payloads(a, b):
    if a == b:
        return
    assert state_hash(doc_with_comment(a)) != state_hash(doc_with_comment(b))


@given(st.lists(simple_text, min_size=1, max_size=5))
def test_roundtrip_preserves_hash(payloads):
    """Serializing and reparsing a document must not change its identity."""
    from repro.dom import serialize

    html = "".join(f"<p>{p}</p>" for p in payloads)
    doc = parse_document(f"<html><body>{html}</body></html>")
    reparsed = parse_document(serialize(doc))
    assert state_hash(doc) == state_hash(reparsed)
