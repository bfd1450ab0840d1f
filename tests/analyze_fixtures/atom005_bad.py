"""Bad: published cache paths written without the staged-rename discipline."""


def direct_write(cache, fingerprint):
    path = cache.path_for(fingerprint)
    with open(path, "w") as handle:  # direct write to a published path
        handle.write("result")


def staged_never_published(cache, fingerprint):
    entry = cache.path_for(fingerprint)
    tmp = entry.with_name(entry.name + ".tmp")
    tmp.write_text("result")  # staged but never renamed into place


def rename_before_flush(cache, fingerprint):
    entry = cache.path_for(fingerprint)
    tmp = entry.with_name(entry.name + ".tmp")
    tmp.replace(entry)  # published before the content lands
    tmp.write_text("result")
