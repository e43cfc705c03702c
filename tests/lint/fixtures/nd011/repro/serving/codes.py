"""ND011 fixture: the serving layer expanding codes itself."""

from repro.storage.imageformat import model_input


def expand(imageformat, codes):
    # a comment naming model_input is no finding
    first = imageformat.model_input(codes)
    return first, model_input(codes), getattr(imageformat, "model_input")
