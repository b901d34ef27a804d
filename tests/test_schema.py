import numpy as np

from contacttrack.schema import (
    BONE_LENGTH,
    BONES,
    JOINT_COUNT,
    JOINT_NAMES,
    SIDE_JOINTS,
    TEMPLATE_JOINTS,
    TORSO_JOINTS,
    HandSchema,
)


class TestBodyConstants:
    def test_26_distinct_names(self):
        assert len(JOINT_NAMES) == len(set(JOINT_NAMES)) == JOINT_COUNT == 26
        assert TEMPLATE_JOINTS.shape == (JOINT_COUNT, 3)

    def test_bones_connect_every_joint(self):
        reached = {0}
        grew = True
        while grew:
            grew = False
            for a, b, _ in BONES:
                if (a in reached) != (b in reached):
                    reached |= {a, b}
                    grew = True
        assert reached == set(range(JOINT_COUNT))

    def test_bone_lengths_are_the_templates(self):
        for a, b, L in BONES:
            assert L > 0
            assert L == np.linalg.norm(TEMPLATE_JOINTS[a] - TEMPLATE_JOINTS[b])
            assert BONE_LENGTH[a, b] == L
        assert len(BONE_LENGTH) == len(BONES)

    def test_named_joint_groups(self):
        for side in ("left", "right"):
            for part, k in SIDE_JOINTS[side].items():
                assert JOINT_NAMES[k] == f"{side}_{part}"
        assert [JOINT_NAMES[k] for k in TORSO_JOINTS] == [
            "left_shoulder", "right_shoulder", "left_hip", "right_hip"]


class TestHandSchema:
    def test_default_layout(self):
        s = HandSchema(vertex_count=16)
        assert s.palm_indices == list(range(8))
        assert s.fingertip_indices == list(range(11, 16))


def test_bones_form_a_tree_listed_parent_first():
    # depth_lift names each joint's bone component in one pass over BONES
    # in order, which needs a tree whose every bone starts at a joint
    # already reached.
    reached = {BONES[0][0]}
    for a, b, _ in BONES:
        assert a in reached and b not in reached
        reached.add(b)
    assert reached == set(range(JOINT_COUNT))
