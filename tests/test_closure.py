"""The runtime dependency claim: importing the whole package loads no
third-party module but ``cryptography`` and its two native backends."""

import json
import os
import subprocess
import sys

import beaconlab

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import beaconlab
for module in pkgutil.iter_modules(beaconlab.__path__):
    importlib.import_module("beaconlab." + module.name)
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_importing_every_module_adds_only_cryptography():
    src = os.path.dirname(os.path.dirname(beaconlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == ["_cffi_backend", "_openssl", "beaconlab", "cryptography"]
