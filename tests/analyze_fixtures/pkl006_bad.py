"""Bad: process-local values shipped across the pickle boundary."""

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor


def map_a_lambda(points):
    transform = lambda point: point.spec  # noqa: E731
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(transform, points))


def submit_a_nested_function(points):
    def execute(point):
        return point.spec

    with ProcessPoolExecutor() as pool:
        return [pool.submit(execute, point) for point in points]


def pickle_an_open_handle(path):
    handle = open(path)
    return pickle.dumps(handle)


def pickle_a_lock():
    guard = threading.Lock()
    return pickle.dumps(guard)


def run_traced(tracer):
    return tracer


def submit_a_tracer(system):
    with ProcessPoolExecutor() as pool:
        return pool.submit(run_traced, system.tracer)
