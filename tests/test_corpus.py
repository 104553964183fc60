"""The instance corpus, each family pinned by digest.  test_solver's
``test_fairness_routes_agree`` cross-checks the solver's routes on it."""

import pytest

import corpus

# corpus.digest of each family, as the generators it replaced drew it at the
# commit that made the corpus.
_PINNED = {
    "randoms-6x3": "b966ff6e554a11a8dd48a7d236132c5d49f1830abd6e5c08cba59353b7ac6534",
    "randoms-7x4": "7aeff1cd0b836921ef5b607bdbc8328634831bf3f9c347eb274c10c51080d775",
    "randoms-9x5": "214639604655280773c583c8bf08d676b024b2357fbcb1c044e1925613e250b2",
    "criterion-6": "60db35c2cb09952264b781a8f3aa30a3a10e0498643c026e29a14b03ec8475de",
    "scan-references": "aa80a13efefd9668741a349bb0b54fa48bd55bc40160d8cbcc5dcedb633b4544",
    "representatives": "1f324a0b244013ae7bfc1c0bf71c6112028fdaf698498f827423aa2bba5a4f71",
    "dense-last-days": "67e907bfff9d0f289ee1dfdb5137aa82a5c9cdaf39aa487e6b034486c8aab145",
    "cross-block-days": "5c8621e30facc4f9f7010f733d70dffe2e33ae73dae2504d276fc63c1f8a98c2",
    "first-leaf-instances": "bb8695d5a4ac5688e00fc7e922b2b12aa724be540d78c5f76631d2e0cce02f43",
    "clubs": "20eb3934f01ecb3871d9ac2715f87ce671de297fc26459d30346f56991613499",
    "repeated-rows": "f22b18c54b39da0a143cb58b64e89e7264832df124b04bb3e786759953b46efb",
    "dense-second-last-days": "092656ca4f38ddb7aa725fe39c63563a67275c24c2e3751e2ee599e3b41b1d2f",
    "flow-instances": "1d323006e79c2fd70da88470001b3ea9745613ebb9c3fbc01a1005dcc5288b90",
    "sheets-without-sit-outs": "30216f3ab9890142612d48bcb8e1ea716394542b18baabad1fac78d47df45e4a",
    "sheets-short-of-a-game-5": "247d32643ef016abfe48f0844853d7eedee10aed137024a906171e60344131d5",
    "sheets-short-of-a-game-6": "ef63e0a61db123f0da0de9cf5b6fea7b41124977f4af90cec7e16a12bb4833ce",
}


@pytest.mark.parametrize("name", corpus.FAMILIES)
def test_family_is_pinned(name):
    assert corpus.FAMILIES.keys() == _PINNED.keys()
    assert corpus.digest(corpus.FAMILIES[name]()) == _PINNED[name]

