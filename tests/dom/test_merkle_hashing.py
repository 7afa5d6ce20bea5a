"""Property tests for the Merkle DOM hasher (incremental hashing).

The hard constraint of the incremental-hashing change is that digests
stay byte-identical to the historical full-rewalk implementation.  The
oracle here is implemented independently in this file (straight
recursion over the canonical hash-stream format), so a shared bug in
``repro.dom.hashing`` cannot hide itself.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.dom import (
    Document,
    Element,
    Text,
    clear_digest_memo,
    hash_tree,
    parse_document,
    reference_region_hashes,
    reference_state_hash,
    state_hash,
)
from repro.dom.hashing import HashStats
from repro.dom.serialize import escape_attribute, escape_text


# -- independent oracle --------------------------------------------------------


def oracle_bytes(node) -> bytes:
    if isinstance(node, Text):
        return escape_text(node.data).encode("utf-8")
    attrs = "".join(
        f' {name}="{escape_attribute(node.attrs[name])}"' for name in sorted(node.attrs)
    )
    inner = b"".join(oracle_bytes(child) for child in node.children)
    return (
        f"<{node.tag}{attrs}>".encode("utf-8")
        + inner
        + f"</{node.tag}>".encode("utf-8")
    )


def oracle_state(root) -> str:
    return hashlib.sha256(oracle_bytes(root)).hexdigest()


def oracle_regions(root) -> dict:
    regions = {}

    def walk(node):
        if not isinstance(node, Element):
            return
        if node.attrs.get("id"):
            regions[node.attrs["id"]] = hashlib.sha256(oracle_bytes(node)).hexdigest()
        for child in node.children:
            walk(child)

    walk(root)
    return regions


# -- random trees and mutations ------------------------------------------------

TAGS = ("div", "span", "p", "ul", "li")
#: Small id pool on purpose: duplicate ids exercise last-wins semantics.
IDS = (None, None, "main", "nav", "box", "box")
WORDS = st.text(alphabet='abc<&" \n', min_size=0, max_size=8)

leaf_spec = WORDS.map(lambda t: ("text", t))
node_spec = st.recursive(
    leaf_spec,
    lambda children: st.tuples(
        st.sampled_from(TAGS), st.sampled_from(IDS), st.lists(children, max_size=3)
    ).map(lambda t: ("elem", *t)),
    max_leaves=12,
)
root_spec = st.tuples(
    st.sampled_from(TAGS), st.sampled_from(IDS), st.lists(node_spec, max_size=4)
).map(lambda t: ("elem", *t))


def build(spec):
    if spec[0] == "text":
        return Text(spec[1])
    _, tag, ident, children = spec
    attrs = {"id": ident} if ident else {}
    element = Element(tag, attrs)
    for child in children:
        element.append_child(build(child))
    return element


def all_nodes(root):
    out = [root]
    if isinstance(root, Element):
        for child in root.children:
            out.extend(all_nodes(child))
    return out


MUTATIONS = ("set_attr", "del_attr", "append", "insert", "remove", "text")


def mutate(root, data):
    """Apply one random structural/attribute/text mutation through the
    public DOM mutators (the dirty-propagation entry points)."""
    op = data.draw(st.sampled_from(MUTATIONS))
    elements = [n for n in all_nodes(root) if isinstance(n, Element)]
    target = data.draw(st.sampled_from(elements))
    if op == "set_attr":
        name = data.draw(st.sampled_from(("id", "class", "data-x")))
        target.set_attribute(name, data.draw(WORDS))
    elif op == "del_attr":
        name = data.draw(st.sampled_from(("id", "class", "data-x")))
        target.remove_attribute(name)
    elif op == "append":
        target.append_child(build(data.draw(node_spec)))
    elif op == "insert":
        reference = (
            data.draw(st.sampled_from(target.children)) if target.children else None
        )
        target.insert_before(build(data.draw(node_spec)), reference)
    elif op == "remove":
        if target.children:
            target.remove_child(data.draw(st.sampled_from(target.children)))
    elif op == "text":
        texts = [n for n in all_nodes(root) if isinstance(n, Text)]
        if texts:
            data.draw(st.sampled_from(texts)).data = data.draw(WORDS)


# -- the central property ------------------------------------------------------


@given(root_spec, st.data())
@settings(max_examples=80, deadline=None)
def test_merkle_matches_oracle_under_mutation_sequences(spec, data):
    """After any mutation sequence, the cached-pass hash and region map
    equal the independent full-rewalk oracle — i.e. the dirty bit never
    serves a stale digest."""
    root = build(spec)
    document = Document(root)
    stats = HashStats()
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        result = hash_tree(document, stats=stats)
        assert result.state == oracle_state(root)
        assert result.regions == oracle_regions(root)
        mutate(root, data)
    final = hash_tree(document, stats=stats)
    assert final.state == oracle_state(root)
    assert final.regions == oracle_regions(root)


@given(root_spec, st.data())
@settings(max_examples=40, deadline=None)
def test_merkle_matches_reference_walk(spec, data):
    """The shipped reference implementations agree with the Merkle pass
    on the same (already cached, then mutated) tree."""
    root = build(spec)
    document = Document(root)
    hash_tree(document)  # warm caches so the reference runs against them
    mutate(root, data)
    result = hash_tree(document)
    assert result.state == reference_state_hash(document)
    assert result.regions == reference_region_hashes(document)
    assert result.state == state_hash(document)


# -- unit checks on the cache machinery ---------------------------------------

SAMPLES = [
    "<html><body><p>plain</p></body></html>",
    "<html><body><div id='a'><div id='a'>dup ids</div></div></body></html>",
    "<html><body>text &amp; <b>entities</b> &lt;kept&gt;</body></html>",
    "<html><body><br><img src='x.gif'><hr></body></html>",
    "<html><head><script>var a = 1;</script></head><body>s</body></html>",
]


def test_merkle_equals_reference_on_corpus():
    for html in SAMPLES:
        fresh = parse_document(html)
        assert hash_tree(fresh).state == reference_state_hash(parse_document(html))
        assert hash_tree(fresh).regions == reference_region_hashes(parse_document(html))


def test_second_pass_is_pure_cache_read():
    document = parse_document(SAMPLES[1])
    stats = HashStats()
    first = hash_tree(document, stats=stats)
    second = hash_tree(document, stats=stats)
    assert second.state == first.state
    assert second.nodes_hashed == 0
    assert second.bytes_hashed == 0
    assert second.incremental
    assert stats.full_passes == 1 and stats.incremental_passes == 1


def test_leaf_mutation_rehashes_only_the_spine():
    document = parse_document(
        "<html><body>"
        + "".join(f"<div id='s{i}'><p>sect {i}</p></div>" for i in range(20))
        + "<div id='hot'><p>old</p></div></body></html>"
    )
    stats = HashStats()
    hash_tree(document, stats=stats)
    total = stats.nodes_hashed
    hot = next(
        n
        for n in all_nodes(document.root)
        if isinstance(n, Element) and n.attrs.get("id") == "hot"
    )
    hot.children[0].children[0].data = "new"
    result = hash_tree(document, stats=stats)
    assert result.incremental
    assert result.nodes_skipped > 0
    # Only the changed text, its <p>, the region div, and the ancestor
    # spine (body/html) rebuild — a small fraction of the tree.
    assert result.nodes_hashed < total / 4
    assert result.state == oracle_state(document.root)


def test_clone_preserves_caches_and_isolates_mutations():
    document = parse_document(SAMPLES[1])
    original = hash_tree(document)
    twin = document.clone()
    stats = HashStats()
    cloned = hash_tree(twin, stats=stats)
    assert cloned.state == original.state
    assert cloned.regions == original.regions
    assert stats.nodes_hashed == 0  # the clone arrived warm
    # Mutating the clone must not leak into the master.
    twin.root.set_attribute("class", "mutated")
    assert hash_tree(twin).state != original.state
    assert hash_tree(document).state == original.state


def test_leaf_chunks_travel_with_clones_and_a_cold_clone_counts_unhashed():
    clear_digest_memo()
    cold = hash_tree(parse_document(SAMPLES[1]))
    document = parse_document(SAMPLES[1])
    reference_state_hash(document)  # the full rewalk fills the leaf chunks alone
    for node in all_nodes(document.root):
        if isinstance(node, Text):
            assert node._hash_bytes == escape_text(node.data).encode("utf-8")
        else:
            assert node._open_bytes is not None and node._canon_bytes is None
    twin = document.clone()
    assert [n._open_bytes for n in all_nodes(twin.root) if isinstance(n, Element)] == [
        n._open_bytes for n in all_nodes(document.root) if isinstance(n, Element)
    ]
    # Only the leaf chunks are warm: a pass does and reports the same work.
    clear_digest_memo()
    warm = hash_tree(twin)
    assert (warm.state, warm.regions) == (cold.state, cold.regions)
    assert (warm.nodes_hashed, warm.nodes_skipped, warm.bytes_hashed, warm.incremental) == (
        cold.nodes_hashed, cold.nodes_skipped, cold.bytes_hashed, cold.incremental
    )


def test_toggle_back_to_seen_state_costs_no_hash_bytes():
    clear_digest_memo()
    document = parse_document(SAMPLES[0])
    stats = HashStats()
    hash_tree(document, stats=stats)
    body = document.body
    body.set_attribute("class", "on")
    hash_tree(document, stats=stats)
    body.remove_attribute("class")
    before = stats.bytes_hashed
    third = hash_tree(document, stats=stats)
    assert third.state == oracle_state(document.root)
    assert stats.bytes_hashed == before  # every digest came from the memo


def test_exclude_takes_the_reference_path():
    document = parse_document(SAMPLES[1])
    hash_tree(document)
    exclude = lambda e: e.attrs.get("id") == "a"  # noqa: E731
    stats = HashStats()
    digest = state_hash(document, exclude=exclude, stats=stats)
    assert stats.full_passes == 1
    fresh = parse_document(SAMPLES[1])
    assert digest == reference_state_hash(fresh, exclude=exclude)
