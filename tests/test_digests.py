"""Every pinned CLI request still prints the bytes it printed when pinned.

``tests/digests.py`` lists the requests and regenerates the golden file; a
change that alters any output fails here, naming each changed request.
"""

import json
import shlex

from digests import GOLDEN, digest, requests


def test_every_request_prints_its_pinned_bytes():
    pinned = json.loads(GOLDEN.read_text())
    assert list(pinned) == [shlex.join(argv) for argv in requests()]
    assert len(pinned) >= 150
    changed = [line for line, sha in pinned.items() if digest(shlex.split(line)) != sha]
    assert not changed, "exit code, stdout or stderr changed for:\n" + "\n".join(changed)
