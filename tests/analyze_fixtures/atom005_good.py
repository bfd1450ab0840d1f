"""Good: every published path goes through stage-then-rename (or "x")."""

import dataclasses
import json
import os


def publish_entry(cache, fingerprint, payload):
    entry = cache.path_for(fingerprint)
    tmp = entry.with_name(entry.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(entry)


def publish_via_os_replace(cache, fingerprint, payload):
    target = cache.path_for(fingerprint)
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, target)


def claim(cache, fingerprint, payload):
    path = cache.path_for(fingerprint)
    with path.open("x") as handle:  # exclusive create IS an atomic claim
        handle.write(json.dumps(payload))


def replace_decoys(spec, text):
    renamed = text.replace("old", "new")  # str.replace: not a publication
    tweaked = dataclasses.replace(spec, seed=1)
    return renamed, tweaked
