import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutstock.model import (
    Copy,
    Instance,
    InstanceError,
    ItemType,
    Placement,
    Solution,
    SolutionError,
    expand_demands,
    format_instance,
    parse_instance,
    read_solution,
    relabel_sheets,
    write_solution,
)

from conftest import DEMO_PLACEMENTS, DEMO_TEXT


def test_parse_demo():
    inst = parse_instance(DEMO_TEXT)
    assert inst.sheet_width == 6 and inst.sheet_height == 4
    assert inst.types == (ItemType(3, 2, 3), ItemType(2, 2, 3))


def test_parse_minimal():
    inst = parse_instance("10 10\n1\n1 1 1\n")
    assert inst.sheet_width == 10
    assert inst.types == (ItemType(1, 1, 1),)


def test_parse_comments_and_whitespace():
    text = "# header\n  6 4 \n# count\n2\n3 2 3\n\n2 2 3\n"
    assert parse_instance(text) == parse_instance(DEMO_TEXT)


def test_parse_rejects_unfittable_type():
    with pytest.raises(InstanceError, match="does not fit"):
        parse_instance("6 4\n1\n7 5 1\n")


@pytest.mark.parametrize("rotation, mode", [(False, "unrotated"), (True, "in any orientation")])
def test_unfittable_type_error_names_no_line(rotation, mode):
    with pytest.raises(InstanceError) as info:
        parse_instance("6 4\n1\n7 5 1\n", rotation=rotation)
    assert str(info.value) == f"item type 0 (7x5) does not fit the 6x4 sheet {mode}"
    assert info.value.line is None


def test_parse_rotation_mode_fit():
    text = "6 4\n1\n3 5 1\n"  # only fits rotated
    inst = parse_instance(text, rotation=True)
    assert inst.types[0] == ItemType(3, 5, 1)
    with pytest.raises(InstanceError):
        parse_instance(text, rotation=False)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("6\n1\n2 2 1\n", "sheet size"),
        ("6 4\n", "type count"),
        ("6 4\n2\n3 2 3\n", "type lines"),
        ("6 4\n1\n3 x 3\n", "non-integer"),
        ("6 4\n1\n3 0 3\n", "non-positive"),
        ("6 4\n1\n3 2 0\n", "demand"),
        ("0 4\n1\n3 2 1\n", "sheet size"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance(text)


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceError, match="line 3"):
        parse_instance("6 4\n2\nbad line here\n2 2 3\n")


@pytest.mark.parametrize(
    "record, args, field",
    [
        (ItemType, (2, 3, 1.5), "demand"),
        (ItemType, (True, 3, 2), "width"),
        (ItemType, (2, "3", 2), "height"),
        (Instance, (10.5, 10, (ItemType(1, 1, 1),)), "sheet_width"),
        (Instance, (10, False, (ItemType(1, 1, 1),)), "sheet_height"),
    ],
    ids=["float-demand", "bool-width", "str-height", "float-sheet-width", "bool-sheet-height"],
)
def test_records_refuse_non_int_fields(record, args, field):
    with pytest.raises(InstanceError, match=f"^non-int {field} "):
        record(*args)


def test_record_repr_is_unchanged():
    inst = Instance(6, 4, (ItemType(2, 3, 1),))
    assert repr(ItemType(2, 3, 1)) == "ItemType(width=2, height=3, demand=1)"
    assert repr(inst) == (
        "Instance(sheet_width=6, sheet_height=4, "
        "types=(ItemType(width=2, height=3, demand=1),), name='instance')"
    )
    copy = Copy(0, 1, 2, 3)
    assert repr(copy) == "Copy(type_index=0, ordinal=1, width=2, height=3)"
    assert repr(Placement(copy, 1, 0, 0)) == (
        "Placement(copy=Copy(type_index=0, ordinal=1, width=2, height=3), "
        "sheet=1, x=0, y=0, rotated=False)"
    )
    assert repr(Solution(inst, ())).startswith("Solution(instance=Instance(")


def test_instance_equality_and_hash_ignore_the_name():
    a = Instance(6, 4, (ItemType(2, 3, 1),), name="a")
    b = Instance(6, 4, (ItemType(2, 3, 1),), name="b")
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == (6, 4, a.types) and hash(a) == hash((6, 4, a.types))
    c = Instance(6, 5, (ItemType(2, 3, 1),), name="a")
    assert a != c and not a == c


def test_keyword_construction_and_defaults():
    inst = Instance(sheet_width=6, sheet_height=4, types=(ItemType(width=2, height=3, demand=1),))
    assert inst.name == "instance"
    placement = Placement(copy=Copy(0, 1, 2, 3), sheet=1, x=0, y=0)
    assert placement.rotated is False


def test_records_are_immutable_and_pickle(demo):
    sol = demo_solution(demo)
    placement = sol.placements[0]
    named = Instance(6, 4, demo.types, name="named")
    for record, field in [(demo, "sheet_width"), (named, "name"), (demo.types[0], "demand"),
                          (placement.copy, "ordinal"), (placement, "x"), (sol, "placements")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record)
    assert pickle.loads(pickle.dumps(named)).name == "named"


def test_replace_checks_the_fields():
    with pytest.raises(InstanceError, match="non-positive demand 0"):
        ItemType(2, 3, 1)._replace(demand=0)
    with pytest.raises(InstanceError, match="no item types"):
        Instance(6, 4, (ItemType(2, 3, 1),))._replace(types=())


def test_expand_demands_demo(demo):
    copies = expand_demands(demo)
    assert len(copies) == 6
    assert [(c.type_index, c.ordinal) for c in copies] == [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)
    ]
    assert copies[0].width == 3 and copies[3].width == 2


def test_expand_demands_ordering():
    inst = Instance(6, 6, (ItemType(2, 3, 2), ItemType(1, 1, 3)))
    copies = expand_demands(inst)
    assert [(c.type_index, c.ordinal) for c in copies] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)
    ]


@st.composite
def instances(draw):
    w = draw(st.integers(1, 9))
    h = draw(st.integers(1, 9))
    types = draw(
        st.lists(
            st.tuples(st.integers(1, w), st.integers(1, h), st.integers(1, 5)),
            min_size=1,
            max_size=4,
        )
    )
    return Instance(w, h, tuple(ItemType(*t) for t in types))


@given(instances())
def test_expand_length_matches_total_demand(inst):
    assert len(expand_demands(inst)) == sum(t.demand for t in inst.types)


@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


def demo_solution(inst) -> Solution:
    copies = {(c.type_index, c.ordinal): c for c in expand_demands(inst)}
    placements = tuple(
        Placement(copies[(t, o)], sheet, x, y, bool(r))
        for t, o, sheet, x, y, r in DEMO_PLACEMENTS
    )
    return Solution(inst, placements)


def test_solution_round_trip(demo):
    sol = demo_solution(demo)
    assert sol.sheets_used == 2
    again = read_solution(write_solution(sol), demo)
    assert again == sol


def test_read_solution_rejects_boundary_violation(demo):
    sol = demo_solution(demo)
    text = write_solution(sol).replace("0 2 1 3 0 0", "0 2 1 4 0 0")  # x+3 > 6
    with pytest.raises(SolutionError, match="exceeds"):
        read_solution(text, demo)


def test_read_solution_rejects_missing_copy(demo):
    sol = demo_solution(demo)
    lines = write_solution(sol).splitlines()
    del lines[2]
    with pytest.raises(SolutionError):
        read_solution("\n".join(lines) + "\n", demo)


def test_read_solution_rejects_duplicate_copy(demo):
    sol = demo_solution(demo)
    lines = write_solution(sol).splitlines()
    lines[2] = lines[1]
    with pytest.raises(SolutionError, match="duplicate"):
        read_solution("\n".join(lines) + "\n", demo)


def test_read_solution_rejects_bad_header_count(demo):
    sol = demo_solution(demo)
    text = write_solution(sol).replace("2 6", "3 6", 1)
    with pytest.raises(SolutionError, match="sheets"):
        read_solution(text, demo)


def test_relabel_sheets(demo):
    sol = demo_solution(demo)
    shifted = Solution(
        demo,
        tuple(Placement(p.copy, p.sheet * 3, p.x, p.y, p.rotated) for p in sol.placements),
    )
    compact = relabel_sheets(shifted)
    assert compact.sheets_used == 2
    assert {p.sheet for p in compact.placements} == {1, 2}
