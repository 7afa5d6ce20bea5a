"""Unit tests for the DOM tree model."""

import pytest

from repro.dom import (
    Document,
    Element,
    Text,
    hash_tree,
    reference_region_hashes,
    reference_state_hash,
)
from repro.errors import DomError


def make_doc():
    root = Element("html")
    body = Element("body")
    root.append_child(body)
    return Document(root, url="http://example.test/"), body


class TestTreeManipulation:
    def test_append_child_sets_parent(self):
        parent = Element("div")
        child = Element("span")
        parent.append_child(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_moves_from_old_parent(self):
        old = Element("div")
        new = Element("div")
        child = Element("span")
        old.append_child(child)
        new.append_child(child)
        assert old.children == []
        assert new.children == [child]
        assert child.parent is new

    def test_self_append_rejected(self):
        element = Element("div")
        with pytest.raises(DomError):
            element.append_child(element)

    def test_remove_child(self):
        parent = Element("div")
        child = parent.append_child(Element("span"))
        parent.remove_child(child)
        assert parent.children == []
        assert child.parent is None

    def test_remove_non_child_raises(self):
        with pytest.raises(DomError):
            Element("div").remove_child(Element("span"))

    def test_insert_before(self):
        parent = Element("div")
        second = parent.append_child(Element("b"))
        first = parent.insert_before(Element("a"), second)
        assert parent.children == [first, second]

    def test_insert_before_none_appends(self):
        parent = Element("div")
        first = parent.append_child(Element("a"))
        last = parent.insert_before(Element("b"), None)
        assert parent.children == [first, last]

    def test_insert_before_foreign_reference_raises(self):
        with pytest.raises(DomError):
            Element("div").insert_before(Element("a"), Element("x"))

    def test_replace_children(self):
        parent = Element("div")
        parent.append_child(Text("old"))
        fresh = [Text("new"), Element("em")]
        parent.replace_children(fresh)
        assert parent.children == fresh
        assert all(child.parent is parent for child in fresh)

    def test_replace_children_detaches_every_old_child(self):
        parent = Element("div")
        old = [parent.append_child(Element("p")) for _ in range(5)]
        kept = old[2]
        parent.replace_children([kept, Text("t")])
        assert [child.parent for child in old] == [None, None, parent, None, None]
        assert parent.children[0] is kept

    def test_replace_children_takes_nodes_from_another_parent(self):
        donor = Element("div")
        moved = donor.append_child(Element("span"))
        parent = Element("div")
        parent.replace_children([moved])
        assert donor.children == []
        assert moved.parent is parent

    def test_replace_children_hashes_like_remove_and_append(self):
        def tree():
            root = Element("div", {"id": "root"})
            box = root.append_child(Element("div", {"id": "box"}))
            for index in range(4):
                box.append_child(Element("p", {"id": f"p{index}"})).append_child(Text(str(index)))
            return root, box

        def fresh():
            return [Element("em", {"id": "e"}), Text("tail")]

        one, one_box = tree()
        two, two_box = tree()
        hash_tree(one), hash_tree(two)  # both clean, so the mutation must dirty them
        one_box.replace_children(fresh())
        for child in list(two_box.children):
            two_box.remove_child(child)
        for child in fresh():
            two_box.append_child(child)
        first, second = hash_tree(one), hash_tree(two)
        assert first.state == second.state == reference_state_hash(one)
        assert (first.nodes_hashed, first.nodes_skipped) == (
            second.nodes_hashed,
            second.nodes_skipped,
        )
        assert hash_tree(one).regions == reference_region_hashes(one)

    def test_replace_children_dirties_a_clean_tree_once_emptied(self):
        root = Element("div")
        box = root.append_child(Element("div", {"id": "box"}))
        box.append_child(Text("x"))
        before = hash_tree(root).state
        box.replace_children([])
        assert hash_tree(root).state != before
        assert hash_tree(root).state == reference_state_hash(root)

    def test_detach(self):
        parent = Element("div")
        child = parent.append_child(Element("span"))
        child.detach()
        assert child.parent is None
        assert parent.children == []

    def test_detach_without_parent_is_noop(self):
        Element("div").detach()  # must not raise


class TestAttributes:
    def test_get_set(self):
        element = Element("div")
        element.set_attribute("Class", "header")
        assert element.get_attribute("class") == "header"
        assert element.get_attribute("CLASS") == "header"

    def test_missing_attribute_is_none(self):
        assert Element("div").get_attribute("id") is None

    def test_has_and_remove(self):
        element = Element("div", {"id": "x"})
        assert element.has_attribute("ID")
        element.remove_attribute("id")
        assert not element.has_attribute("id")

    def test_id_property(self):
        assert Element("div", {"id": "main"}).id == "main"
        assert Element("div").id is None

    def test_tag_is_lowercased(self):
        assert Element("DIV").tag == "div"


class TestTraversal:
    def test_iter_descendants_preorder(self):
        root = Element("div")
        a = root.append_child(Element("a"))
        a_text = a.append_child(Text("link"))
        b = root.append_child(Element("b"))
        assert list(root.iter_descendants()) == [a, a_text, b]

    def test_get_element_by_id_finds_self(self):
        element = Element("div", {"id": "me"})
        assert element.get_element_by_id("me") is element

    def test_get_element_by_id_finds_descendant(self):
        root = Element("div")
        inner = Element("span", {"id": "deep"})
        middle = root.append_child(Element("p"))
        middle.append_child(inner)
        assert root.get_element_by_id("deep") is inner

    def test_get_element_by_id_missing(self):
        assert Element("div").get_element_by_id("nope") is None

    def test_get_element_by_id_takes_the_first_duplicate_in_document_order(self):
        root = Element("div")
        first = root.append_child(Element("p"))
        first.append_child(Text("text nodes are stepped over"))
        deep = first.append_child(Element("b")).append_child(Element("i", {"id": "dup"}))
        shallow = root.append_child(Element("span", {"id": "dup"}))
        # Pre-order: the deep one under the first child comes before its uncle.
        assert root.get_element_by_id("dup") is deep
        assert shallow.get_element_by_id("dup") is shallow
        root.set_attribute("id", "dup")
        assert root.get_element_by_id("dup") is root
        assert Document(root).get_element_by_id("dup") is root

    def test_get_elements_by_tag(self):
        root = Element("div")
        root.append_child(Element("span"))
        nested = root.append_child(Element("p"))
        nested.append_child(Element("span"))
        assert len(root.get_elements_by_tag("SPAN")) == 2

    def test_find_all_with_predicate(self):
        root = Element("ul")
        for index in range(3):
            root.append_child(Element("li", {"data-i": str(index)}))
        odd = root.find_all(lambda e: e.get_attribute("data-i") == "1")
        assert len(odd) == 1


class TestTextContent:
    def test_concatenates_descendant_text(self):
        root = Element("div")
        root.append_child(Text("hello "))
        child = root.append_child(Element("b"))
        child.append_child(Text("world"))
        assert root.text_content == "hello world"

    def test_script_content_excluded(self):
        root = Element("div")
        script = root.append_child(Element("script"))
        script.append_child(Text("var x = 1;"))
        root.append_child(Text("visible"))
        assert root.text_content == "visible"


class TestDocument:
    def test_body_and_head(self):
        root = Element("html")
        head = root.append_child(Element("head"))
        body = root.append_child(Element("body"))
        doc = Document(root)
        assert doc.body is body
        assert doc.head is head

    def test_body_missing(self):
        assert Document(Element("html")).body is None

    def test_get_element_by_id(self):
        doc, body = make_doc()
        target = body.append_child(Element("div", {"id": "t"}))
        assert doc.get_element_by_id("t") is target

    def test_owner_document(self):
        doc, body = make_doc()
        child = body.append_child(Element("div"))
        assert child.owner_document is doc

    def test_create_element_is_detached(self):
        doc, _ = make_doc()
        element = doc.create_element("div", {"id": "x"})
        assert element.parent is None
        assert element.id == "x"

    def test_get_elements_by_tag_includes_root(self):
        doc, _ = make_doc()
        assert doc.get_elements_by_tag("html") == [doc.root]


class TestClone:
    def test_clone_is_a_detached_deep_copy_with_its_own_parents(self):
        doc, body = make_doc()
        box = body.append_child(Element("DIV", {"id": "box", "class": "c"}))
        box.append_child(Text("hello "))
        box.append_child(Element("b")).append_child(Text("world"))
        twin = box.clone()
        assert twin.parent is None and twin.owner_document is None
        assert (twin.tag, twin.attrs) == ("div", {"id": "box", "class": "c"})
        assert twin.attrs is not box.attrs
        originals = {id(node) for node in box.iter_descendants()}
        for parent in [twin, *twin.iter_elements()]:
            for child in parent.children:
                assert child.parent is parent
                assert id(child) not in originals
        twin.children[1].children[0].data = "there"
        twin.set_attribute("class", "d")
        assert box.text_content == "hello world"
        assert box.get_attribute("class") == "c"

    def test_document_clone_owns_its_root(self):
        doc, body = make_doc()
        twin = doc.clone()
        assert twin.url == doc.url
        assert twin.root is not doc.root
        assert twin.body.owner_document is twin
        assert body.owner_document is doc

    @pytest.mark.parametrize("node", [Element("div"), Text("t"), Element("p").clone()])
    def test_nodes_are_slotted(self, node):
        with pytest.raises(AttributeError):
            node.note = "ad hoc"
