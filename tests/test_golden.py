"""Byte-identity guard for the builtin scenes.

Holds the sha256 of every file that `simulate` writes, and of every file
that `run` writes with a per-frame map and with --static-map, for a short
fixed-seed window of each builtin scene, plus the `simulate` files and the
per-frame-map `run` files of an eight-person crossing window whose joints
are hidden by other bodies far more often, so depth lifting casts against
a frame's 80 body capsules, culled to the few each ray may hit, and of a
longer crossing-noisy window whose run stitches a fragment id. For each
builtin window it also holds the `evaluate` report and a fixed-grid
`sweep` of the per-frame-map `run` against the simulated ground truth. A change
that moves any output byte fails here. When a change moves bytes on
purpose, say which and why in CHANGES.md and record the new hashes,
printed by

    PYTHONPATH=src python tests/test_golden.py

The hashes hold where OpenBLAS rounds its products as on the host that
recorded them, which runs its SkylakeX kernels. Forced to another kernel,
exactly the KERNEL_DEPENDENT entries move: BLAS products still reach
those bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from contacttrack.cli import main
from contacttrack.config import PipelineConfig
from contacttrack.pipeline import run_pipeline
from contacttrack.scenes import builtin_scene
from contacttrack.simulator import emit_dataset

from helpers import crowd_crossing, tree_bytes, window

SEED = 0
# (first frame, frame count) per builtin: the induction windows hold the
# first scripted touches, crossing-clean the first births and
# crossing-noisy a person leaving the room.
WINDOWS = {
    "crossing-clean": (0, 24),
    "crossing-noisy": (240, 24),
    "induction-lite": (60, 36),
    "induction-lite-noisy": (60, 36),
}
SWEEP_GRID = "0.02:0.12:0.01"  # m, tau_on values of the pinned sweep
# Windows pinned by their simulate and per-frame-map run outputs only: the
# eight-person crowd, and crossing-noisy frames 240-329, the one window
# whose run stitches a fragment id (4 into 3, recorded in run_meta.json),
# so its tracks, hand tracks and traces pin the bytes of the id remap.
RUN_ONLY = {
    "crowd-8": crowd_crossing,
    "crossing-noisy-stitch": lambda: window(builtin_scene("crossing-noisy"), 240, 90),
}

GOLDEN = {
    "crossing-clean": {
        "run": {
            "distance_traces.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "d4fa005c68bc84162c70edc9c8ac99a8016a3e463aaa3804a3a97a8d511d9188",
            "run_meta.json": "166e4a2c389d1f24edfc2c70c00a081e7d9588662d38c436b9fa65973fdc415b",
            "tracks.jsonl": "85740ed8c25620af1c02d57466c921ae7f63d5b4c298e81814deba1cf9dca06e"
        },
        "run-static": {
            "distance_traces.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "d4fa005c68bc84162c70edc9c8ac99a8016a3e463aaa3804a3a97a8d511d9188",
            "run_meta.json": "3a049fd2943ffb58645fe38214e40296a4e9c754328cc813a8c2d01ee40afc82",
            "tracks.jsonl": "85740ed8c25620af1c02d57466c921ae7f63d5b4c298e81814deba1cf9dca06e"
        },
        "score": {
            "report.csv": "dbe4cf5a31a8903278119cd1c243b798160bab1527ec63c95f22134afcafb507",
            "report.json": "686788eb6be5ccaf60d5f16390f7badfd57d4b5501b6f12aac11b4be6bf6344f",
            "sweep.csv": "40d1c22df22104ec52c96d047035f6a833156dda998422de68442129e91e26d0"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "4aa27d86a97a86f02eee2c928b9a604ca88673693447faf7b05f10e8140073f2",
            "gt/episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "gt/meta.json": "6d61e41f82b7a0a490a5378366a675c5535fdecc5004f77ccf125a49837efdb9",
            "gt/tracks.jsonl": "f6da32eb29ba6cd7bec8f9cb0723b16686802a162881057f95c2e8f83e459046",
            "gt/visibility.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "scene.json": "49e887d18dd8371acddeaf8d43827d872f849d46b818e5e127aa7e0fc992fe36"
        }
    },
    "crossing-noisy": {
        "run": {
            "distance_traces.jsonl": "68febb6ebc8053b7bb81a51eb1447d2ec40be386e6b5d473246a1978553d6a3f",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "fba404dc5abfa9fe7e3b1ded1acf72914a8ee3e382187595ff378018e500eb3f",
            "run_meta.json": "166e4a2c389d1f24edfc2c70c00a081e7d9588662d38c436b9fa65973fdc415b",
            "tracks.jsonl": "c2790bf89501b52f55427a4d1eebcb79c65af517f7d5e76b9d6a72d836fdd082"
        },
        "run-static": {
            "distance_traces.jsonl": "68febb6ebc8053b7bb81a51eb1447d2ec40be386e6b5d473246a1978553d6a3f",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "fba404dc5abfa9fe7e3b1ded1acf72914a8ee3e382187595ff378018e500eb3f",
            "run_meta.json": "3a049fd2943ffb58645fe38214e40296a4e9c754328cc813a8c2d01ee40afc82",
            "tracks.jsonl": "c2790bf89501b52f55427a4d1eebcb79c65af517f7d5e76b9d6a72d836fdd082"
        },
        "score": {
            "report.csv": "a7151ba1a110b01744a906b35cd2e579aa5fdf7bcb668f86e576379d0d3a6150",
            "report.json": "8d3daa65062f3583d77b07871c8bfbbc3867643aa28203a8535f68ff48c289cc",
            "sweep.csv": "40d1c22df22104ec52c96d047035f6a833156dda998422de68442129e91e26d0"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "33e483df312d4a3afd9e441f1e1ed9c04a3d3978fd03f10a9da14416ebe92bf5",
            "gt/episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "gt/meta.json": "6d61e41f82b7a0a490a5378366a675c5535fdecc5004f77ccf125a49837efdb9",
            "gt/tracks.jsonl": "d62ec1b5271e5afedda9246e2cb915d00b4da28ce3c64ec9fd83044d66cef8a0",
            "gt/visibility.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "cb1464f7eccc8aa25aa911596052fb2ee4dd431d9e916577475f0db6cd548d84",
            "scene.json": "f93a70157abf9e23583b8821e278719d8d2ea1ea91dd45a04f9ad870486c9906"
        }
    },
    "crossing-noisy-stitch": {
        "run": {
            "distance_traces.jsonl": "ef92c9dfaa9f89b454b220c736a63be47a0ceab374592f037ea3ff951c156f0e",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "0f97fa3f0f44710b6c9081a4b2e63b321cb83f2388871d969f3c31719925188d",
            "run_meta.json": "db3a0f3203b086ee5a9d914624b805ae6778a73829b330e431aeace64b040b3e",
            "tracks.jsonl": "97a828cb5679cc660d073d21c53fd46e9c04745efb2eff80ef52f6c8c70d1539"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "3e839273fd14700a7f3dc7dffd56076ed672116370f1b8ecff72deaf997ae600",
            "gt/episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "gt/meta.json": "45249c0bd717b26d26d9fd4339b2153991ef2e3b69c6a2bf22f006c8de04e77e",
            "gt/tracks.jsonl": "5e7bdf9f39dddabe815e134b48ce8ef7a60ccd44481b9cdc9639347dc605fcd9",
            "gt/visibility.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "cb1464f7eccc8aa25aa911596052fb2ee4dd431d9e916577475f0db6cd548d84",
            "scene.json": "4d5b9e2acc4902221b6a224e6b68f1889b4f3b95b14a87c5a953c6664ebfff8d"
        }
    },
    "crowd-8": {
        "run": {
            "distance_traces.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "hand_tracks.jsonl": "79e78ec649b20a64276abbb46bfdd9f798677e1d3cd7649c7d8136b9f01847db",
            "run_meta.json": "166e4a2c389d1f24edfc2c70c00a081e7d9588662d38c436b9fa65973fdc415b",
            "tracks.jsonl": "b4daac3aac7ab673be0a0e07fe2dfe80af09faa4b7497c0f746b298830fdadd1"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "711e9a2b6a555824cd7271124434fb3861cd610649f4f591974ef1740707ea9b",
            "gt/episodes.csv": "68f8894dc5e3c7b9a829b89920466472ac7c21f9988b438ebba1491d19ecf31d",
            "gt/meta.json": "c58a05d77e2b9c729284291ba834f1ab5c5aff8557b97add6c4b164554728a68",
            "gt/tracks.jsonl": "13e4a55bdbdd65f19c763c228d5d05ed3d5072064b1340cc2c5c1a5ba71f31e8",
            "gt/visibility.jsonl": "c0aef9b44be8beadabe7b71903ea5cf77d759b0d0d13f8b7e113d71069ea05fa",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "scene.json": "ea95fe596cbe4d929409dde6263915e55aba817e46694c509459caa5f06bfdee"
        }
    },
    "induction-lite": {
        "run": {
            "distance_traces.jsonl": "91afb4c3de25a0f9a9df1610deab19b4679e71c62c7dcac2021718121f555d9b",
            "episodes.csv": "1112132199410c2105b63f4bd7fe4a87897dc2205747ce5170ed3ac243f920d2",
            "hand_tracks.jsonl": "1f41e91f339b3fe86d2694e23a7392e335cfc4ea7a8656a342eee31d84b395f7",
            "run_meta.json": "67b10146179086c1637388cd751e2a14f62402a088731c3786d1fd012db3e348",
            "tracks.jsonl": "c866b338ad5df7c70fc8ab34f59ce1780998b0b2479b51ab2d78a3b454f9626d"
        },
        "run-static": {
            "distance_traces.jsonl": "91afb4c3de25a0f9a9df1610deab19b4679e71c62c7dcac2021718121f555d9b",
            "episodes.csv": "1112132199410c2105b63f4bd7fe4a87897dc2205747ce5170ed3ac243f920d2",
            "hand_tracks.jsonl": "1f41e91f339b3fe86d2694e23a7392e335cfc4ea7a8656a342eee31d84b395f7",
            "run_meta.json": "027a1aac72b1b7ccbd44593fa719adb217291081cb9da83888b75336f22d29cf",
            "tracks.jsonl": "c866b338ad5df7c70fc8ab34f59ce1780998b0b2479b51ab2d78a3b454f9626d"
        },
        "score": {
            "report.csv": "6dee67bf49efd43a1d7623c7d0fcc4016d0ea5fffc201b1618b96d3afc60d728",
            "report.json": "744853cb66135583a1d57a253067fde8829c5fdc1520bdd5d01f520e26928723",
            "sweep.csv": "650e9028e96f08529ac5b51e8ae8b8f70f267103d260e7fc1fcb9b7cd8cabfe5"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "adeebf3b77b8c77189352608998259a69d5e42aa2c39b51fb3fb0cba64e6beea",
            "gt/episodes.csv": "51b3728c428bec4163d36c33bee62e3ca0b4f3fcfd24231e62a48fc7308d3766",
            "gt/meta.json": "a3873c5179f970dfb2137dac5d369ed114051c7ec9956016cd3e6207d69c9507",
            "gt/tracks.jsonl": "43f776df7fcac16ab231e6b3b6ef2dc39c14cec73d7c6bb0d07a8d8bfa14bb1a",
            "gt/visibility.jsonl": "dcc108a60d2c5fb1ed955d673f8eb8746432c568eebcc8d2e0316ec3876ba39e",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "22f91d221aa56ef782d08c1e967104fcda38033a491de3c8c9bebaf030e14ab3",
            "scene.json": "145e53cb4553dc75e0b1d45626fee26c27973272dab2b896c5227d4f8b44e103"
        }
    },
    "induction-lite-noisy": {
        "run": {
            "distance_traces.jsonl": "733b23a209b691a516f9b9991890fb02109957115baa3132efb6a2333ae2591f",
            "episodes.csv": "ee613dcc39e03df3bbc59cb03c69134478f880953457860d03a71a68cc474f9f",
            "hand_tracks.jsonl": "021f2177954e6db34c35c00a4a54ef37b233ee726536541658c8e6435f2a9c74",
            "run_meta.json": "67b10146179086c1637388cd751e2a14f62402a088731c3786d1fd012db3e348",
            "tracks.jsonl": "6a9a7cf7569a70f3e63be5735802623546152cf67ccc12a9b2a838c58e9c80bd"
        },
        "run-static": {
            "distance_traces.jsonl": "856922dd8a488638f7287b574f53ef7fca13ec70c97f324a0d167f395cdfaa76",
            "episodes.csv": "e90441213b9b4eb426f91b38f162f3c2ffb72cd7d9d872a8f10e728ba3200129",
            "hand_tracks.jsonl": "021f2177954e6db34c35c00a4a54ef37b233ee726536541658c8e6435f2a9c74",
            "run_meta.json": "027a1aac72b1b7ccbd44593fa719adb217291081cb9da83888b75336f22d29cf",
            "tracks.jsonl": "6a9a7cf7569a70f3e63be5735802623546152cf67ccc12a9b2a838c58e9c80bd"
        },
        "score": {
            "report.csv": "6dee67bf49efd43a1d7623c7d0fcc4016d0ea5fffc201b1618b96d3afc60d728",
            "report.json": "744853cb66135583a1d57a253067fde8829c5fdc1520bdd5d01f520e26928723",
            "sweep.csv": "b74affaa1159564cc7049bd578b7ec6286baa9391f5d324e1d26f7a916df3b5d"
        },
        "simulate": {
            "calibration.json": "e03d792610eda47538cab36259ec1ef4a8a42033ce506c5363be417419adcde8",
            "detections.jsonl": "3b21d83b828710c8b9d0e8c972b550c2879057869879c5b821fc6e3dca7b04cb",
            "gt/episodes.csv": "51b3728c428bec4163d36c33bee62e3ca0b4f3fcfd24231e62a48fc7308d3766",
            "gt/meta.json": "a3873c5179f970dfb2137dac5d369ed114051c7ec9956016cd3e6207d69c9507",
            "gt/tracks.jsonl": "43f776df7fcac16ab231e6b3b6ef2dc39c14cec73d7c6bb0d07a8d8bfa14bb1a",
            "gt/visibility.jsonl": "dcc108a60d2c5fb1ed955d673f8eb8746432c568eebcc8d2e0316ec3876ba39e",
            "hand_schema.json": "d5680986af011aab4dfb57ffb8efbeb746e35a4e60a032c6e32b9bac7b58d9b1",
            "label_table.txt": "22f91d221aa56ef782d08c1e967104fcda38033a491de3c8c9bebaf030e14ab3",
            "scene.json": "ba840050f6d78364fbc01bdc038029d80aafd0a32c3381bf3c642d03ff592bd9"
        }
    }
}


# The GOLDEN entries, window/mode/file, that move when OpenBLAS runs
# another kernel (OPENBLAS_CORETYPE) than the host that recorded them.
KERNEL_DEPENDENT = {
    "Haswell": ["crowd-8/run/tracks.jsonl"],
    "Nehalem": [
        "crossing-clean/simulate/calibration.json",
        "crossing-noisy-stitch/run/tracks.jsonl",
        "crossing-noisy-stitch/simulate/calibration.json",
        "crossing-noisy-stitch/simulate/detections.jsonl",
        "crossing-noisy/run-static/tracks.jsonl",
        "crossing-noisy/run/tracks.jsonl",
        "crossing-noisy/simulate/calibration.json",
        "crowd-8/simulate/calibration.json",
        "induction-lite-noisy/run-static/tracks.jsonl",
        "induction-lite-noisy/run/tracks.jsonl",
        "induction-lite-noisy/simulate/calibration.json",
        "induction-lite/simulate/calibration.json",
    ],
}


def dynamic_arch_openblas():
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, the
    one whose kernel OPENBLAS_CORETYPE chooses."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return "DYNAMIC_ARCH" in blas["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return False


def digests(root):
    """{relative path: sha256} of every file under root."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(root).items()}


def outputs(name, root):
    """Digests of the simulate outputs of one window and of its run
    outputs: per-frame map and --static-map for the builtin windows, the
    per-frame map only for the RUN_ONLY windows. The builtin windows add
    the evaluate and sweep outputs of the per-frame run."""
    ds = os.path.join(root, "data")
    if name in RUN_ONLY:
        scene = RUN_ONLY[name]()
    else:
        scene = window(builtin_scene(name), *WINDOWS[name])
    emit_dataset(scene, ds, seed=SEED)
    got = {"simulate": digests(ds)}
    modes = (("run", False), ("run-static", True)) if name in WINDOWS else (("run", False),)
    for mode, static in modes:
        out = os.path.join(root, mode)
        run_pipeline(os.path.join(ds, "calibration.json"), ds, out,
                     PipelineConfig(static_map=static, seed=SEED))
        got[mode] = digests(out)
    if name in WINDOWS:
        score = os.path.join(root, "score")
        gt, pred = os.path.join(ds, "gt"), os.path.join(root, "run")
        with contextlib.redirect_stdout(io.StringIO()):  # the commands' summaries
            assert main(["evaluate", "--pred", pred, "--gt", gt, "--out", score]) == 0
            assert main(["sweep", "--in", pred, "--gt", gt, "--grid", SWEEP_GRID,
                         "--out", os.path.join(score, "sweep.csv")]) == 0
        got["score"] = digests(score)
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_keep_their_bytes(name, tmp_path):
    assert outputs(name, str(tmp_path)) == GOLDEN[name]


def flat(tree):
    """{window/mode/file: hash} of a GOLDEN-shaped tree."""
    return {f"{name}/{mode}/{file}": digest for name, modes in tree.items()
            for mode, files in modes.items() for file, digest in files.items()}


@pytest.mark.skipif(not dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("core", sorted(KERNEL_DEPENDENT))
def test_forced_kernel_moves_only_the_pinned_entries(core):
    # The printer in a child process, whose OpenBLAS runs the core's
    # kernels: exactly the pinned entries differ from GOLDEN, so the test
    # also fails if more entries start to move.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, check=True)
    got, want = flat(json.loads(proc.stdout)), flat(GOLDEN)
    assert sorted(got) == sorted(want)
    assert sorted(k for k in want if got[k] != want[k]) == KERNEL_DEPENDENT[core]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        got = {name: outputs(name, os.path.join(tmp, name)) for name in sorted(GOLDEN)}
    print(json.dumps(got, indent=4, sort_keys=True))
