import numpy as np
import pytest

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

    def test_file_lists_used_as_given(self):
        data = {"vertex_count": 40, "palm_indices": [3], "fingertip_indices": [0, 1, 2, 4, 5]}
        assert HandSchema.from_json(data).to_json() == data

    @pytest.mark.parametrize("palm, tips, message", [
        ([], [35, 36, 37, 38, 39], "palm_indices must name at least one vertex"),
        ([0, 1], [], "exactly five fingertip indices"),
    ])
    def test_empty_file_lists_rejected(self, palm, tips, message):
        with pytest.raises(ValueError, match=message):
            HandSchema.from_json({"vertex_count": 40, "palm_indices": palm,
                                  "fingertip_indices": tips})
