"""Run the real apps' *actual logic* through both programming models.

These tests execute `MovieTrailerApi.fetch_movie` (unmodified app code +
interceptor) and the API-based ports, demonstrating the paper's claim
that the annotation model needs no logic changes while both models
produce the same results.
"""

import pytest

from repro.apps.api_ports import MovieTrailerApiBased, VirtualHomeApiBased
from repro.apps.movietrailer import TOP_MOVIES, MovieTrailerApi
from repro.apps.virtualhome import PRODUCT_CATEGORIES, VirtualHomeApi
from repro.core import ApRuntime
from repro.core.client_runtime import ClientRuntime
from repro.testbed import Testbed, TestbedConfig

SIZES = {
    "http://api.movietrailer.example/id": 256,
    "http://api.movietrailer.example/rating": 1024,
    "http://api.movietrailer.example/plot": 4096,
    "http://api.movietrailer.example/cast": 8192,
    "http://img.movietrailer.example/thumb": 64 * 1024,
    "http://api.virtualhome.example/ar-objects-id": 1024,
    "http://assets.virtualhome.example/ar-objects": 96 * 1024,
}


@pytest.fixture
def env():
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address)
    ap.install()
    for url, size in SIZES.items():
        bed.host_object(url, size, origin_delay_s=0.025)
    runtime = ClientRuntime(bed.add_client("phone"), bed.transport,
                            bed.ap.address, app_id="realapp")
    return bed, ap, runtime


def test_movietrailer_annotation_model_unmodified_logic(env):
    bed, ap, runtime = env
    api = MovieTrailerApi()
    runtime.register(MovieTrailerApi)  # the entire integration
    runtime.install_interceptor()

    def run_app():
        details = yield from api.fetch_movie(runtime.http, TOP_MOVIES[0])
        return details

    started = bed.sim.now
    details = bed.sim.run(until=bed.sim.process(run_app()))
    cold_latency = bed.sim.now - started
    assert len(details) == 4
    assert all(response.ok for response in details)
    assert ap.delegations == 5  # id + four details, all cold

    started = bed.sim.now
    bed.sim.run(until=bed.sim.process(run_app()))
    warm_latency = bed.sim.now - started
    assert warm_latency < cold_latency / 2


def test_movietrailer_api_based_port_equivalent(env):
    bed, ap, runtime = env
    port = MovieTrailerApiBased()

    def run_app():
        movie, details = yield from port.fetch_movie(runtime,
                                                     TOP_MOVIES[1])
        return movie, details

    movie, details = bed.sim.run(until=bed.sim.process(run_app()))
    assert movie is not None
    assert len(details) == 4
    # Same five objects end up on the AP either way.
    assert len(ap.store) == 5


def test_virtualhome_both_models_fetch_same_assets(env):
    bed, ap, runtime = env
    api = VirtualHomeApi()
    runtime.register(VirtualHomeApi)
    runtime.install_interceptor()

    def annotation_run():
        asset = yield from api.place_furniture(runtime.http,
                                               PRODUCT_CATEGORIES[0])
        return asset

    annotation_asset = bed.sim.run(
        until=bed.sim.process(annotation_run()))

    runtime2 = ClientRuntime(bed.add_client("phone2"), bed.transport,
                             bed.ap.address, app_id="realapp")
    port = VirtualHomeApiBased()

    def api_run():
        asset = yield from port.place_furniture(runtime2,
                                                PRODUCT_CATEGORIES[0])
        return asset

    api_asset = bed.sim.run(until=bed.sim.process(api_run()))
    assert annotation_asset.url == api_asset.url
    # The second user's big AR asset came from the AP cache.
    assert ap.hits_served >= 1


def test_second_phone_benefits_from_first_phones_cache(env):
    bed, ap, runtime = env
    api = MovieTrailerApi()
    runtime.register(MovieTrailerApi)
    runtime.install_interceptor()

    def run_app(http):
        details = yield from api.fetch_movie(http, TOP_MOVIES[2])
        return details

    bed.sim.run(until=bed.sim.process(run_app(runtime.http)))

    other = ClientRuntime(bed.add_client("phone2"), bed.transport,
                          bed.ap.address, app_id="realapp")
    other.register(MovieTrailerApi)
    other.install_interceptor()
    assert other.hit_ratio() == 0.0 and other.fetches == 0
    started = bed.sim.now
    bed.sim.run(until=bed.sim.process(run_app(other.http)))
    neighbor_latency = bed.sim.now - started
    # Cold for this phone, warm on the AP: stays well under 50 ms.
    assert neighbor_latency < 0.050
    assert other.hit_ratio() > 0.8
