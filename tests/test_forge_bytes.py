"""The forge's output, byte for byte.

Every image and sidecar below hashes to a value recorded before the
forge's writer was rebuilt over cluster runs; any change to how the
forge lays out, deletes, formats or overwrites files shows here.  The
cases cover the standard corpora at their default sizes (seed 0) and
one fragmented corpus per filesystem.  The eight NTFS image hashes were
recorded again when the NTFS build time was corrected from 2020-01-02
to 2020-01-01 12:00:00; that moved only the $STANDARD_INFORMATION and
$FILE_NAME time fields.  The three NTFS quick-format, full-overwrite
and delete-all+quick-format image hashes were recorded again when the
NTFS quick format began to rewrite $Bitmap where record 6 keeps it
(cluster 20) instead of at cluster 8; that moved clusters 5, 8 and 20.
The NTFS build and delete-all image hashes were recorded again when the
build stopped marking in $Bitmap the clusters planned for files that
stay resident; that moved only bitmap bits.
"""

import hashlib

import pytest

from conftest import sparse_copy
from remnant import forge

MiB = 1 << 20
FS = ("fat12", "fat16", "fat32", "ntfs")

# Mutations applied, in order, to a copy of the built image.
STEPS = {
    "build": (),
    "delete-all": ("delete-all",),
    "quick-format": ("quick-format",),
    "full-overwrite": ("full-overwrite",),
    "delete-all+quick-format": ("delete-all", "quick-format"),
}

FRAGMENT_SIZES = {"fat12": 2 * MiB, "fat16": 16 * MiB, "fat32": 40 * MiB,
                  "ntfs": 8 * MiB}

# (image sha256, sidecar sha256) per case.
PINNED = {
    'standard/fat12/build': (
        'e6be939f6e3ca2f1b3b3e8929449820502251f16643a010a9041b50587267ea2',
        '418e1b1e49e2932748af9301a1d68e4210afc2e4ec0bd68499400c32332c743b'),
    'standard/fat12/delete-all': (
        'b4362a412692d62cb92b0a6366931a7e7840b21dce53e08c8e47a465359ba93b',
        '2d5e5e8bafb5ef84e2e872de02038bae18bd9f32366ac9f6681a6c645930cb3e'),
    'standard/fat12/quick-format': (
        'f127340a86a6dad29da063a42b8857969aeb59b9a03a261fb5b0d5e565626faa',
        'b1016d62d49e8933ac4e6c103d54b5c6b33263922da122536b6a986bc2b1f877'),
    'standard/fat12/full-overwrite': (
        '9054e280bd1f62a364cffee16a8c1bb01ada8f80e96e6d743e1db1d412d9a193',
        '0b30501df1ffaa28044a2fd6a2e2a31605ad72b0db01dc22f4afc667c1143e70'),
    'standard/fat12/delete-all+quick-format': (
        '1b88e735eb22fc6c4aa5fc1ec9a6c6bbda40974625f2e9bd0a74d1a62c95bbcb',
        'c8f94883f6efcfffae9dc56be64bd752edc3e863d460ad7024e0154288e86c7b'),
    'standard/fat16/build': (
        '07afb5387ef72a23604854a7c99c87dbeae0d089cc2408f4a463ed58214eea96',
        'ec06bbdaa6c8482084d6ba68dd40f3d5b8fb4a4172369a2f44ed415dad61591c'),
    'standard/fat16/delete-all': (
        '354eeab664c28376b58daea87bc7d1b914eca7e1ce4f8cf5fd7effc774161c84',
        '063bd8165d43c091d9b852851b7dc5d8548bd10904f271a2aac8d221cf835fc2'),
    'standard/fat16/quick-format': (
        'cf8e83ceee796b84d870c95070522f600261de521006ac111000f5df659c7e94',
        '32415e7f5d6489df3bdac8acbb464b00ad9e670d38f9e8fecda733478693ade5'),
    'standard/fat16/full-overwrite': (
        '83aa346b6fc8e9eef80e8a69cba54bd4a036d649a71d72cbc48f79de0c3b8784',
        '2ce010c89f1ef63a1cb1d986b2d4314ca7417a08db907e567ae19786946546ce'),
    'standard/fat16/delete-all+quick-format': (
        'edd7c65592ba1d27cd61595d918d418bd51980f6b2b2edeb8cb684d592145a1e',
        '10d61531be8cefef5beb4eb312e98fbd7853e70d18f490a09a87f15fb06a19f6'),
    'standard/fat32/build': (
        '2c322585ef869025d0ed7ea0fdfae54a1f5821c12d413d748020776e95506b92',
        '474df08abddd2bcafeb832517c33f66df128f3da2fc07c888c89866e4b1c5391'),
    'standard/fat32/delete-all': (
        '6cca6e10a96b27b3a362403b954a3ccf6d3e6f3d6c5501fadb22110b06aa6f43',
        'eb7ea63b2c11a034b3e77d5277cb1459351331d8da316e30c3eff266ce268afd'),
    'standard/fat32/quick-format': (
        '9783d4f7a0de8207842d741b08244bb649d2952a98ae7bb8676630a060a85b8e',
        '95ae738298c109136771ca90192eee48888d225f66c2f2e2b28478131b16f70d'),
    'standard/fat32/full-overwrite': (
        '28058a265811102309fbad4e96149b12fe7928bb4734bd0be525fd6eb951a950',
        '29d7bd690c697c50a2dcedb277202297c18208239a25adbe4bf9bf9b5076f6da'),
    'standard/fat32/delete-all+quick-format': (
        '7a7d9f41dbb666b23c5f7bf3ddb79945c59dcc93f757b9970befe7647e98d240',
        '60f01ddeb9453301efab455c1de68723a266214ba9003de98a62fe082db9594b'),
    'standard/ntfs/build': (
        'e689e6310430a1bb649342084981313679989a7fa2e4b3a76fcb19a7c4eb1ed2',
        'c20f5f7e49e6be90e08bc0269e021d2dc4ef9393703a23642d89f5fae6610b16'),
    'standard/ntfs/delete-all': (
        'b44c5fd84a83c3a955a6bef39bfe22228157dd129c072a8a3883f70871e605b2',
        '93e896602066ba5aa8b40bcb5f47c28fbc744c843d7b4486fb0c9aa380f66bdf'),
    'standard/ntfs/quick-format': (
        '8fd658f0ba804321a1c6e7853b5bb5fc4c462f6003b065d94ed7ba122a6fd0fe',
        '1b89db3115e75cd41f70b3ab0b5b32f5c8a62647a532aa06acba9c566e88827d'),
    'standard/ntfs/full-overwrite': (
        '06122e01219af8afa8d05cce310f4547dbac8f1c3dc525b6c6209952823ac8bc',
        'c83cb54538d6786ebcb830dac4e19ce912db84c4e0cdc0632f9726ebdb1fde15'),
    'standard/ntfs/delete-all+quick-format': (
        '0a45148e34445c8eab2b3b4b9b303c8c518776aa9333f470363b6db7d418494b',
        '683c30a376df73021077961d64c564fba5c0d0c86a7b332fa45a32265a030818'),
    'fragmented/fat12/build': (
        'aa2e9d7964c7f91e1e8e02fcb87a9dee2990891f7368d8de11edb42e1cf5814c',
        '684b5f1064f024e1df206ff7322ddcdf762c73534798f04887ba35fe97751922'),
    'fragmented/fat12/delete-all': (
        '02ee192ce93b6cae19f5042f2be3b072b47c268901efef676d3d2ca8436eecf1',
        '19e9cc98b4666969535e0e3626ac2aa807a376e8a1eadee3410aecc7d95e840b'),
    'fragmented/fat16/build': (
        'b18439869e601367a379924c109c9690dfd22703c2a07667a428253819f58ed8',
        '6c359d07fbe4ed12d36a6a45e820afa49da9d9f1a23a0b71f67fec440c8f0b90'),
    'fragmented/fat16/delete-all': (
        '7f6cc3e402305e70ebc742821bcce1010009972a33bb0568f5d15ee937c61e44',
        '302f45f00bdbf5ae1b03871a0e400f2c4ad818d3fd309a13e97b82ebbcde21a3'),
    'fragmented/fat32/build': (
        '1cdf872d09f381e271579b7da1fe67ef1a826a9166e98441a4e5a34f4f116f2e',
        '35ea16d7a763ed734806146e7381bfb4ffd17f3886dd6c6f10b083454127c83d'),
    'fragmented/fat32/delete-all': (
        '5d6afc1d9a92398400f69a5de73bbb5dbf3c83f2ee6ebc3c9bd57fed22bf292d',
        'a0ff9cb648beb5109ca10a0644756161572665fa0ec607914fa69e136d07f0a4'),
    'fragmented/ntfs/build': (
        'f86b5e8174bc8820f6ccce67e123463583b87eff05e07ac400ab45b79163ed4c',
        'a21252021521a9c4c7f025ad5b7fff651f0da96e88c9b9e0440acc60869143db'),
    'fragmented/ntfs/delete-all': (
        'e3d5b3fdd08ea6671596c6019033e01925d166c1fb74a7b4c85b227f051a1df8',
        'dff815adba50412b30d4fac00c9ec909214653dbd3d652dbf09db70175ed3030'),
}


def _sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fragmented_corpus(fs: str) -> forge.CorpusSpec:
    """Two fragment pairs of unequal sizes, one inside a directory and
    with a long name, beside unpaired and tiny files."""
    f = forge.FileSpec
    return forge.CorpusSpec(
        filesystem=fs, total_size=FRAGMENT_SIZES[fs], seed=3,
        files=[f("A.BIN", "audio", 20000), f("C.TXT", "document", 700),
               f("B.BIN", "video", 9000), f("F.TXT", "document", 10),
               f("Long Name D.jpg", "image", 30000, None, "SUB"),
               f("E.PNG", "image", 5000, None, "SUB")],
        dirs=["SUB"],
        fragment_pairs=[("A.BIN", "B.BIN"), ("Long Name D.jpg", "E.PNG")])


def _build(spec, root, name):
    img = root / ("%s.img" % name)
    sidecar = root / ("%s.img.truth.json" % name)
    forge.build_image(spec, img, truth_path=sidecar)
    return img, sidecar


def _mutate(img, sidecar, steps):
    """Apply ``steps`` the way ``remnant forge --apply`` does, sidecar
    included."""
    truth = forge.GroundTruth.load(sidecar)
    for action in steps:
        forge.apply_mutation(img, action, truth=truth)
        truth.mutations.append(action)
        truth.save(sidecar)


def case_digests(name: str, root, standard) -> tuple[str, str]:
    """Run case ``name`` in directory ``root``; ``standard(fs)`` gives a
    built standard image and its sidecar.  Returns the sha256 of the
    image and of the sidecar."""
    kind, fs, what = name.split("/")
    if kind == "fragmented":
        img, sidecar = _build(fragmented_corpus(fs), root, fs)
    else:
        img, sidecar = root / "v.img", root / "v.img.truth.json"
        for src, dst in zip(standard(fs), (img, sidecar)):
            sparse_copy(src, dst)
    _mutate(img, sidecar, STEPS[what])
    return _sha(img), _sha(sidecar)


CASES = ([("standard/%s/%s" % (fs, s)) for fs in FS for s in STEPS]
         + [("fragmented/%s/%s" % (fs, s)) for fs in FS
            for s in ("build", "delete-all")])


@pytest.fixture(scope="module")
def standard(tmp_path_factory):
    """fs -> (image, sidecar) of the standard corpus, built once."""
    built = {}

    def get(fs):
        if fs not in built:
            built[fs] = _build(forge.standard_corpus(fs),
                               tmp_path_factory.mktemp("standard"), fs)
        return built[fs]

    return get


@pytest.mark.parametrize("name", CASES)
def test_forge_bytes_are_pinned(name, tmp_path, standard):
    assert case_digests(name, tmp_path, standard) == PINNED[name]

