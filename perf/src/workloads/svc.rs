//! The service: `svc-codec` (rule-based codec path under two closed-loop
//! clients) and `svc-ping` (the wire floor), against a server started in
//! this process on a loopback port.

use super::{exact, s3d_variables, sampled, timed, Batch, Checks, Ctx, Turn};
use crate::report::Metric;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use gld_baselines::{ErrorBoundedCompressor, SzCompressor};
use gld_core::{
    compress_variable_to_writer_fmt, fit_variable_profile, Codec, CodecId, Container,
    ContainerFormat, ErrorTarget, StreamConfig,
};
use gld_datasets::blocks::temporal_windows;
use gld_datasets::Variable;
use gld_entropy::{HistogramModel, RangeDecoder, RangeEncoder};
use gld_lz::{LzProfile, LzScratch};
use gld_service::protocol::{
    self, decode_blocks_body, encode_blocks_body, encode_compress_body, encode_frame, FrameHeader,
    StreamEvent, StreamParser,
};
use gld_service::{
    CodecRegistry, Op, PipelinedClient, Reply, Server, ServiceClient, ServiceConfig, Status,
    StatusResponse,
};
use gld_tensor::stats::max_abs_error;
use gld_tensor::{Tensor, TensorRng};
use std::time::Instant;

/// Callers that wait for a reply: one outstanding request each.
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Hot keys per client; three requests in four go to one of them.
const HOT_KEYS: usize = 4;
/// Temporal block length of the compress requests.
const BLOCK_FRAMES: usize = 8;
/// Relative point-wise bound of the compress requests.
const REL_BOUND: f32 = 1e-3;
/// Outstanding pings per pipelined connection.
const PING_WINDOW: usize = 32;

struct Sizes {
    /// One variable: 32 x 32 x 32 values (128 KB), four blocks.
    variable: [usize; 3],
    /// Distinct never-hot variables per client; cold keys are always new,
    /// their data cycles through this pool.
    cold_pool: usize,
    /// Compress-then-decompress pairs per client in one batch.
    pairs_per_batch: usize,
    /// Pings per connection in one batch.
    pings_per_batch: usize,
    /// Pipelined pings that warm each connection during set-up.  They also
    /// make set-up long enough to time: server start, connect and `Hello`
    /// alone take 0.3 ms, give or take a thread wake-up, and one-at-a-time
    /// pings take 15 or 45 us each, as the idle vCPU happens to wake.
    warm_pings: usize,
    /// One-outstanding pings the traced run times on the idle server.
    idle_pings: usize,
    /// Set-up is cheap here, so it is repeated until its median is steady.
    codec_setup_repeats: usize,
    ping_setup_repeats: usize,
    min_batches: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            variable: [16, 16, 16],
            cold_pool: 2,
            pairs_per_batch: 8,
            pings_per_batch: 500,
            warm_pings: 50,
            idle_pings: 100,
            codec_setup_repeats: 1,
            ping_setup_repeats: 1,
            min_batches: 1,
        }
    } else {
        Sizes {
            variable: [32, 32, 32],
            cold_pool: 12,
            pairs_per_batch: 120,
            pings_per_batch: 100_000,
            warm_pings: 2_000,
            idle_pings: 2_000,
            codec_setup_repeats: 5,
            ping_setup_repeats: 31,
            min_batches: 3,
        }
    }
}

fn start_server(ctx: &Ctx) -> Server {
    ctx.tracer.span("service.server_start", 0, || {
        let config = ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        };
        Server::start(config, CodecRegistry::rule_based()).expect("start the in-process server")
    })
}

/// Connects and negotiates stage and shared profiles, so compress replies
/// are container v4.
fn connect(ctx: &Ctx, server: &Server) -> ServiceClient {
    ctx.tracer.span("service.connect_hello", 0, || {
        let mut client = ServiceClient::connect(server.local_addr()).expect("connect to loopback");
        let info = client.hello(&[CodecId::SzLike]).expect("hello");
        assert!(
            info.stage && info.profiles,
            "server did not grant container v4"
        );
        client
    })
}

/// Runs `work` for every client at once, a thread and a span recorder each;
/// returns the wall seconds all of it took and what each thread returned.
fn on_threads<C: Send, R: Send>(
    ctx: &Ctx,
    clients: &mut [C],
    work: impl Fn(usize, &mut C, &Checks, &Tracer) -> R + Sync,
) -> (f64, Vec<R>) {
    let start = Instant::now();
    let done: Vec<(R, Tracer)> = std::thread::scope(|scope| {
        let (work, checks) = (&work, &ctx.checks);
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let tracer = ctx.tracer.fork();
                scope.spawn(move || (work(index, client, checks, &tracer), tracer))
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let results = done.into_iter().map(|(result, tracer)| {
        ctx.tracer.absorb(tracer);
        result
    });
    (wall_s, results.collect())
}

fn status(server: &Server) -> StatusResponse {
    ServiceClient::connect(server.local_addr())
        .and_then(|mut client| client.status().map_err(std::io::Error::other))
        .expect("status from the in-process server")
}

/// Refusals and the deepest shard queue the server saw.
fn server_counters(status: &StatusResponse) -> Vec<Metric> {
    let peak = status.shards.iter().map(|s| s.peak_in_flight).max();
    vec![
        exact("service.rejected", status.requests_rejected as f64),
        exact("service.peak_inflight", peak.unwrap_or(0) as f64),
    ]
}

fn server_p50_ns(status: &StatusResponse, op: Op) -> f64 {
    let summaries = status.summaries.as_ref();
    summaries
        .and_then(|s| s.op(op))
        .map_or(0.0, |row| row.p50_ns as f64)
}

// ----------------------------------------------------------------- svc-codec

/// A variable and what the service must answer for it.
struct Expected {
    variable: Variable,
    /// `compress_variable_profiled(..).0.encode()` run locally.
    container: Vec<u8>,
    /// That container decompressed locally, checked against the bound.
    blocks: Vec<Tensor>,
}

/// One step of a client's request order.
#[derive(Clone, Copy)]
enum Slot {
    Hot(usize),
    Cold(usize),
}

/// What one client asks for, and in which order.
struct Requests {
    hot: Vec<Expected>,
    cold: Vec<Expected>,
    order: Vec<Slot>,
}

struct CodecClient {
    connection: ServiceClient,
    requests: Requests,
    /// Cold keys handed out so far: every cold request gets a key the server
    /// has never seen.
    cold_keys: usize,
}

impl Requests {
    fn expected(&self, slot: Slot) -> &Expected {
        match slot {
            Slot::Hot(h) => &self.hot[h],
            Slot::Cold(c) => &self.cold[c],
        }
    }
}

struct CodecState {
    clients: Vec<CodecClient>,
    // After the clients, so their connections close before the server stops.
    server: Server,
}

fn target() -> Option<ErrorTarget> {
    Some(ErrorTarget::Nrmse(REL_BOUND))
}

/// What the codec, called directly, makes of `variable`.  The replies are
/// compared with this, so first it is itself held to the point-wise bound.
fn expected(checks: &Checks, variable: Variable) -> Expected {
    let codec = SzCompressor::new();
    let (container, _, _) = codec.compress_variable_profiled(
        &variable,
        BLOCK_FRAMES,
        target(),
        StreamConfig::default(),
    );
    let bytes = container.encode();
    let blocks = Container::decode(&bytes)
        .and_then(|parsed| codec.decompress_container(&parsed))
        .expect("a container this process just wrote");
    checks.attempt("svc-codec local reference", || {
        let windows = temporal_windows(&variable, BLOCK_FRAMES);
        for (window, block) in windows.iter().zip(&blocks) {
            let bound = REL_BOUND * (window.data.max() - window.data.min());
            let worst = max_abs_error(&window.data, block);
            checks.verify(worst <= bound * (1.0 + 1e-5), || {
                format!("local SZ decode is {worst} off, bound {bound}")
            })?;
        }
        Ok(())
    });
    Expected {
        variable,
        container: bytes,
        blocks,
    }
}

fn codec_state(ctx: &Ctx, sizes: &Sizes) -> CodecState {
    let per_client = HOT_KEYS + sizes.cold_pool;
    let variables = s3d_variables(
        &ctx.tracer,
        CLIENTS * per_client,
        sizes.variable,
        sizes.variable[0],
        ctx.args.seed,
    );
    let mut references = ctx.tracer.span("core.local_reference", 0, || {
        let variables = variables.into_iter();
        variables
            .map(|v| expected(&ctx.checks, v))
            .collect::<Vec<_>>()
    });
    let server = start_server(ctx);
    let mut rng = TensorRng::new(ctx.args.seed);
    let clients = (0..CLIENTS)
        .map(|_| {
            let cold = references.split_off(references.len() - sizes.cold_pool);
            let hot = references.split_off(references.len() - HOT_KEYS);
            // Groups of four: three hot keys drawn at random, one cold
            // variable, at a random place in the group.
            let mut order = Vec::with_capacity(sizes.pairs_per_batch);
            let mut next_cold = 0;
            while order.len() < sizes.pairs_per_batch {
                let cold_at = rng.sample_index(4);
                for i in 0..4 {
                    order.push(if i == cold_at {
                        next_cold += 1;
                        Slot::Cold((next_cold - 1) % sizes.cold_pool)
                    } else {
                        Slot::Hot(rng.sample_index(HOT_KEYS))
                    });
                }
            }
            order.truncate(sizes.pairs_per_batch);
            CodecClient {
                connection: connect(ctx, &server),
                requests: Requests { hot, cold, order },
                cold_keys: 0,
            }
        })
        .collect();
    CodecState { clients, server }
}

/// One compress-then-decompress pair as the client saw it.
struct Pair {
    compress_ms: f64,
    decompress_ms: f64,
    cold: bool,
}

/// One client's share of a batch: its request order, once through.
fn client_batch(
    client: &mut CodecClient,
    index: usize,
    batch: usize,
    checks: &Checks,
    tracer: &Tracer,
) -> Vec<Pair> {
    let requests = &client.requests;
    let mut pairs = Vec::with_capacity(requests.order.len());
    for (step, &slot) in requests.order.iter().enumerate() {
        let op = ((batch * CLIENTS + index) * requests.order.len() + step) as u64;
        let key = match slot {
            Slot::Hot(h) => format!("c{index}-hot-{h}"),
            Slot::Cold(_) => {
                client.cold_keys += 1;
                format!("c{index}-cold-{}", client.cold_keys)
            }
        };
        let cold = matches!(slot, Slot::Cold(_));
        let expected = requests.expected(slot);
        let connection = &mut client.connection;
        let mut pair = Pair {
            compress_ms: 0.0,
            decompress_ms: 0.0,
            cold,
        };
        let reply = checks.attempt("svc-codec compress", || {
            let (ms, reply) = timed(|| {
                tracer.span("service.compress", op, || {
                    connection.compress_as(
                        CodecId::SzLike,
                        &key,
                        &expected.variable,
                        BLOCK_FRAMES as u32,
                        target(),
                    )
                })
            });
            pair.compress_ms = ms;
            let bytes = reply.map_err(|e| e.to_string())?;
            checks.verify(bytes == expected.container, || {
                format!("{key}: compress reply differs from the local container")
            })?;
            Ok(bytes)
        });
        // The reply goes back as sent; after a failed compress the local
        // container stands in, so the decompress is still exercised.
        let container = reply.as_deref().unwrap_or(&expected.container);
        checks.attempt("svc-codec decompress", || {
            let (ms, reply) = timed(|| {
                tracer.span("service.decompress", op, || {
                    connection.decompress(&key, container)
                })
            });
            pair.decompress_ms = ms;
            let blocks = reply.map_err(|e| e.to_string())?;
            checks.verify(blocks == expected.blocks, || {
                format!("{key}: decompress reply differs from the local decode")
            })
        });
        pairs.push(pair);
    }
    pairs
}

pub fn codec(ctx: &Ctx) -> Vec<Metric> {
    let sizes = sizes(ctx.args.quick);
    let mut pairs: Vec<Pair> = Vec::new();
    let set_up = || codec_state(ctx, &sizes);
    let batch = |state: &mut CodecState, turn: Turn| {
        let (wall_s, done) =
            on_threads(ctx, &mut state.clients, |index, client, checks, tracer| {
                client_batch(client, index, turn.index, checks, tracer)
            });
        let mut latencies_ms = Vec::new();
        for client_pairs in done {
            latencies_ms.extend(client_pairs.iter().map(|p| p.compress_ms + p.decompress_ms));
            if !turn.warm_up {
                pairs.extend(client_pairs);
            }
        }
        Batch::new(wall_s, &latencies_ms)
    };
    let (state, setup_s, measured) =
        ctx.epochs(sizes.codec_setup_repeats, sizes.min_batches, set_up, batch);

    if !ctx.args.trace {
        let lengths = state.clients.iter().flat_map(|client| {
            let slots = client.requests.order.iter();
            slots.map(move |&slot| client.requests.expected(slot).container.len())
        });
        let pairs = CLIENTS * sizes.pairs_per_batch;
        let bytes_per_op = lengths.sum::<usize>() as f64 / pairs as f64;
        return ctx.end_to_end(&setup_s, &measured, 2 * pairs, bytes_per_op);
    }

    let status = status(&state.server);
    // The layers under one compress and one decompress request, each called
    // directly on a hot variable now that the load is over.
    let reference = &state.clients[0].requests.hot[0];
    let probes = ctx
        .checks
        .attempt("svc-codec layer probes", || codec_layers(ctx, reference));
    let probes = probes.unwrap_or_default();
    let of = |f: &dyn Fn(&Pair) -> Option<f64>| {
        stats::sorted(&pairs.iter().filter_map(f).collect::<Vec<_>>())
    };
    let compress = of(&|p| Some(p.compress_ms));
    let decompress = of(&|p| Some(p.decompress_ms));
    let hot = of(&|p| (!p.cold).then_some(p.compress_ms));
    let cold = of(&|p| p.cold.then_some(p.compress_ms));
    let tail = |name, sorted: &[f64]| {
        let (p, value) = stats::tail(sorted).unwrap_or((50.0, stats::percentile(sorted, 50.0)));
        exact(name, value).with_note(format!("p{p} of {} samples", sorted.len()))
    };
    let compress_p50 = stats::percentile(&compress, 50.0);
    let server_compress_ms = server_p50_ns(&status, Op::Compress) / 1e6;
    let mut metrics = vec![
        exact("trace_overhead_frac", measured.trace_overhead_frac()),
        exact(
            "datasets.generate_ms",
            ctx.tracer.durations_ms("datasets.generate").iter().sum(),
        ),
        sampled(
            "service.connect_hello_ms",
            &ctx.tracer.durations_ms("service.connect_hello"),
        ),
        exact("service.compress_p50_ms", compress_p50),
        exact(
            "service.decompress_p50_ms",
            stats::percentile(&decompress, 50.0),
        ),
        exact("service.compress_hot_p50_ms", stats::percentile(&hot, 50.0)),
        exact(
            "service.compress_cold_p50_ms",
            stats::percentile(&cold, 50.0),
        ),
        tail("service.compress_p99_ms", &compress),
        tail("service.decompress_p99_ms", &decompress),
        exact("service.server_compress_p50_ms", server_compress_ms)
            .with_note("Status summary: log2 buckets, all requests since the server started"),
        exact(
            "service.server_decompress_p50_ms",
            server_p50_ns(&status, Op::Decompress) / 1e6,
        ),
        exact(
            "service.wire_overhead_ms",
            compress_p50 - server_compress_ms,
        )
        .with_note("client compress p50 minus server compress p50"),
    ];
    metrics.extend(server_counters(&status));
    // A request cannot be faster than the codec work and the framing it
    // contains.
    let inside = |name: &str| probes.iter().find(|m| m.name == name).map(|m| m.summary);
    if let (Some(stream), Some(frame)) = (
        inside("core.stream_compress_ms"),
        inside("service.protocol.compress_frame_us"),
    ) {
        let floor_ms = stream.median + frame.median / 1e3;
        ctx.reconcile(floor_ms <= compress_p50, || {
            format!("stream + frame {floor_ms} ms exceeds compress p50 {compress_p50} ms")
        });
        metrics.push(
            exact("trace.layer_coverage", floor_ms / compress_p50)
                .with_note("stream compress + request framing over client compress p50"),
        );
    }
    metrics.extend(probes);
    metrics
}

/// The scalar kernels forced process-wide, and released again on every way
/// out: whatever is timed next must run on the active backend.
struct ScalarForced;

impl ScalarForced {
    fn new() -> Result<ScalarForced, String> {
        gld_kernels::force(gld_kernels::Backend::Scalar).map_err(|e| e.to_string())?;
        Ok(ScalarForced)
    }
}

impl Drop for ScalarForced {
    fn drop(&mut self) {
        gld_kernels::clear_force();
    }
}

fn codec_layers(ctx: &Ctx, reference: &Expected) -> Result<Vec<Metric>, String> {
    let t = &ctx.tracer;
    let codec = SzCompressor::new();
    let variable = &reference.variable;
    let repeat = |name: &'static str, f: &mut dyn FnMut()| {
        for _ in 0..20 {
            t.span(name, 0, &mut *f);
        }
        t.durations_ms(name)
    };

    // gld-core: what the shard runs for a compress, and its parts.
    let profile_fit = repeat("core.profile_fit", &mut || {
        std::hint::black_box(fit_variable_profile(
            &codec,
            variable,
            BLOCK_FRAMES,
            target(),
        ));
    });
    let mut streamed = Vec::new();
    let stream_compress = repeat("core.stream_compress", &mut || {
        let (bytes, _, _) = compress_variable_to_writer_fmt(
            &codec,
            variable,
            BLOCK_FRAMES,
            target(),
            StreamConfig::default(),
            ContainerFormat::V4,
            Vec::new(),
        )
        .expect("stream into a Vec");
        streamed = bytes;
    });
    ctx.checks.verify(streamed == reference.container, || {
        "streamed v4 container differs from the buffered one".into()
    })?;
    let (container, _, _) =
        codec.compress_variable_profiled(variable, BLOCK_FRAMES, target(), StreamConfig::default());
    let container_encode = repeat("core.container.encode", &mut || {
        std::hint::black_box(container.encode());
    });
    let container_decode = repeat("core.container.decode", &mut || {
        std::hint::black_box(Container::decode(&reference.container).expect("own container"));
    });
    let decompress_container = repeat("core.decompress_container", &mut || {
        std::hint::black_box(
            codec
                .decompress_container(&container)
                .expect("own container"),
        );
    });

    // gld-baselines on gld-kernels: one 8 x 32 x 32 block, cold.
    let windows = temporal_windows(variable, BLOCK_FRAMES);
    let block = &windows[0].data;
    let bound = REL_BOUND * (block.max() - block.min());
    let mut frame = Vec::new();
    let backend = gld_kernels::active();
    let sz_compress = repeat("baselines.sz_compress", &mut || {
        frame = ErrorBoundedCompressor::compress(&codec, block, bound);
    });
    let sz_decompress = repeat("baselines.sz_decompress", &mut || {
        std::hint::black_box(ErrorBoundedCompressor::decompress(&codec, &frame));
    });
    let sz_scalar = {
        let _scalar = ScalarForced::new()?;
        repeat("kernels.sz_compress_scalar", &mut || {
            std::hint::black_box(ErrorBoundedCompressor::compress(&codec, block, bound));
        })
    };

    // gld-lz on the real SZ frames of the container.
    let frames = container.blocks();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    let mut scratch = LzScratch::new();
    let mut staged: Vec<Vec<u8>> = Vec::new();
    let lz_compress = repeat("lz.compress", &mut || {
        staged = frames
            .iter()
            .map(|f| gld_lz::compress(f, &mut scratch))
            .collect();
    });
    let staged_bytes: usize = staged.iter().map(Vec::len).sum();
    let lz_decompress = repeat("lz.decompress", &mut || {
        for (stream, frame) in staged.iter().zip(frames) {
            let raw = gld_lz::decompress(stream, frame.len()).expect("own stream");
            assert_eq!(&raw, frame, "gld-lz does not round-trip");
        }
    });
    let profile = LzProfile::fit(&frames[0], &mut scratch);
    let lz_warm = repeat("lz.warm_compress", &mut || {
        for (index, frame) in frames.iter().enumerate() {
            let dict = if index == 0 { &[][..] } else { &frames[0][..] };
            std::hint::black_box(gld_lz::compress_profiled(
                frame,
                dict,
                &profile,
                &mut scratch,
            ));
        }
    });

    // gld-entropy: a static histogram model fitted and coded on the
    // variable's first-order residual codes at the request's bound.
    let data = variable.frames.data();
    let step = 2.0 * bound;
    let codes: Vec<i32> = data
        .windows(2)
        .map(|w| ((w[1] - w[0]) / step).round().clamp(-4096.0, 4096.0) as i32)
        .collect();
    let mut stream = Vec::new();
    let mut model = HistogramModel::fit(&codes);
    let histogram_encode = repeat("entropy.histogram_encode", &mut || {
        model = HistogramModel::fit(&codes);
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &codes);
        stream = enc.finish();
    });
    let histogram_decode = repeat("entropy.histogram_decode", &mut || {
        let decoded = model.decode(&mut RangeDecoder::new(&stream), codes.len());
        assert_eq!(decoded, codes, "histogram model does not round-trip");
    });

    // gld-service framing: a compress request and a decompress reply.
    let dims = variable.frames.dims();
    let dims = [dims[0] as u32, dims[1] as u32, dims[2] as u32];
    let frame_us = repeat("service.protocol.compress_frame", &mut || {
        let body = encode_compress_body("c0-hot-0", BLOCK_FRAMES as u32, target(), dims, data);
        let header =
            FrameHeader::request(Op::Compress, CodecId::SzLike as u8, 1, body.len() as u64);
        let mut parser = StreamParser::new(protocol::MAX_BODY_LEN);
        parser.push(&encode_frame(&header, &body));
        assert!(matches!(parser.next_event(), StreamEvent::Frame(..)));
    });
    let blocks_body = repeat("service.blocks_body", &mut || {
        let body = encode_blocks_body(&reference.blocks);
        std::hint::black_box(decode_blocks_body(&body).expect("own body"));
    });

    let median = |ms: &[f64]| stats::median(ms);
    let mb_s = |bytes: usize, ms: &[f64]| bytes as f64 / 1e6 / (median(ms) / 1e3);
    let msym_s = |ms: &[f64]| codes.len() as f64 / (median(ms) * 1e3);
    let us = |ms: &[f64]| ms.iter().map(|v| v * 1e3).collect::<Vec<_>>();
    Ok(vec![
        sampled("core.profile_fit_ms", &profile_fit),
        sampled("core.stream_compress_ms", &stream_compress),
        sampled("core.container.encode_ms", &container_encode),
        exact("core.container.bytes", reference.container.len() as f64),
        exact(
            "core.container.profile_table_bytes",
            container.profile_table_bytes() as f64,
        ),
        sampled("core.container.decode_ms", &container_decode),
        sampled("core.decompress_container_ms", &decompress_container),
        sampled("baselines.sz_compress_ms", &sz_compress)
            .with_note(format!("{} backend", backend.name())),
        sampled("baselines.sz_decompress_ms", &sz_decompress),
        exact(
            "kernels.sz_scalar_ratio",
            median(&sz_scalar) / median(&sz_compress),
        )
        .with_note(format!("scalar-forced over {}", backend.name())),
        exact("lz.compress_mb_s", mb_s(frame_bytes, &lz_compress)),
        exact("lz.warm_compress_mb_s", mb_s(frame_bytes, &lz_warm)),
        exact("lz.decompress_mb_s", mb_s(frame_bytes, &lz_decompress)),
        exact("lz.ratio", frame_bytes as f64 / staged_bytes as f64),
        exact("entropy.histogram_encode_msym_s", msym_s(&histogram_encode))
            .with_note("fit + encode"),
        exact("entropy.histogram_decode_msym_s", msym_s(&histogram_decode)),
        sampled("service.protocol.compress_frame_us", &us(&frame_us)),
        sampled("service.blocks_body_us", &us(&blocks_body)),
    ])
}

// ------------------------------------------------------------------ svc-ping

struct PingState {
    connections: Vec<PipelinedClient>,
    server: Server,
}

fn ping_state(ctx: &Ctx, sizes: &Sizes) -> PingState {
    let server = start_server(ctx);
    let connections = (0..CLIENTS)
        .map(|_| {
            let mut connection = connect(ctx, &server).into_pipelined();
            ping_batch(
                &mut connection,
                sizes.warm_pings,
                0,
                &ctx.checks,
                &ctx.tracer,
            );
            connection
        })
        .collect();
    PingState {
        connections,
        server,
    }
}

/// Keeps `PING_WINDOW` pings outstanding until `count` were answered.
/// Refills in half-window bursts, so submits leave in one write.
fn ping_batch(
    connection: &mut PipelinedClient,
    count: usize,
    batch: usize,
    checks: &Checks,
    tracer: &Tracer,
) -> Vec<f64> {
    let mut sent_at = [Instant::now(); 2 * PING_WINDOW];
    let mut latencies_ms = Vec::with_capacity(count);
    let mut sent = 0;
    let mut broken = false;
    while latencies_ms.len() < count && !broken {
        checks.attempt("svc-ping", || {
            let op = (batch * count + latencies_ms.len()) as u64;
            tracer.span("service.ping", op, || {
                if sent < count && connection.outstanding() <= PING_WINDOW / 2 {
                    while sent < count && connection.outstanding() < PING_WINDOW {
                        let id = connection.submit_ping().map_err(|e| e.to_string())?;
                        sent_at[id as usize % sent_at.len()] = Instant::now();
                        sent += 1;
                    }
                }
                let received = connection.recv().map_err(|e| {
                    broken = true;
                    e.to_string()
                });
                let (id, reply) = received?;
                let elapsed = sent_at[id as usize % sent_at.len()].elapsed();
                latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                checks.verify(reply == Reply::Pong, || {
                    format!("ping {id} answered {reply:?}")
                })
            })
        });
    }
    latencies_ms
}

pub fn ping(ctx: &Ctx) -> Vec<Metric> {
    let sizes = sizes(ctx.args.quick);
    let pings = sizes.pings_per_batch;
    let set_up = || ping_state(ctx, &sizes);
    let batch = |state: &mut PingState, turn: Turn| {
        let (wall_s, done) = on_threads(
            ctx,
            &mut state.connections,
            |_, connection, checks, tracer| {
                ping_batch(connection, pings, turn.index, checks, tracer)
            },
        );
        Batch::new(wall_s, &done.concat())
    };
    let (state, setup_s, measured) =
        ctx.epochs(sizes.ping_setup_repeats, sizes.min_batches, set_up, batch);

    if !ctx.args.trace {
        // Nothing is compressed: the frames are all a ping puts on the wire.
        let request = encode_frame(&FrameHeader::request(Op::Ping, 0, 0, 0), &[]);
        let reply = encode_frame(&FrameHeader::response(Op::Ping, 0, Status::Ok, 0, 0), &[]);
        let wire_bytes = (request.len() + reply.len()) as f64;
        let pings = CLIENTS * sizes.pings_per_batch;
        return ctx.end_to_end(&setup_s, &measured, pings, wire_bytes);
    }
    let status = status(&state.server);
    let mut metrics = vec![
        exact("trace_overhead_frac", measured.trace_overhead_frac()),
        sampled(
            "service.connect_hello_ms",
            &ctx.tracer.durations_ms("service.connect_hello"),
        ),
        exact(
            "service.server_ping_p50_us",
            server_p50_ns(&status, Op::Ping) / 1e3,
        )
        .with_note("Status summary: log2 buckets, all pings since the server started"),
    ];
    metrics.extend(server_counters(&status));
    // After the status was read: the idle pings below are not the load.
    metrics.extend(ping_probes(ctx, &state.server, &sizes));
    metrics
}

/// The framing alone, and one ping at a time against the idle server.
fn ping_probes(ctx: &Ctx, server: &Server, sizes: &Sizes) -> Vec<Metric> {
    let rounds = 1_000;
    let (frame_ms, _) = timed(|| {
        ctx.tracer.span("service.protocol.ping_frame", 0, || {
            let mut parser = StreamParser::new(protocol::MAX_BODY_LEN);
            for id in 0..rounds {
                parser.push(&encode_frame(
                    &FrameHeader::request(Op::Ping, 0, id, 0),
                    &[],
                ));
                assert!(matches!(parser.next_event(), StreamEvent::Frame(..)));
            }
        })
    });
    let mut client = connect(ctx, server);
    let mut rtt_us = Vec::with_capacity(sizes.idle_pings);
    for op in 0..sizes.idle_pings {
        ctx.checks.attempt("svc-ping idle ping", || {
            let (ms, reply) = timed(|| {
                ctx.tracer
                    .span("service.ping_rtt", op as u64, || client.ping())
            });
            rtt_us.push(ms * 1e3);
            reply.map_err(|e| e.to_string())
        });
    }
    let rtt = Summary::of(&rtt_us);
    vec![
        exact(
            "service.protocol.ping_frame_ns",
            frame_ms * 1e6 / rounds as f64,
        )
        .with_note("encode_frame + StreamParser::push + next_event"),
        Metric::new("service.ping_rtt_us", rtt).with_note("one outstanding, idle server"),
    ]
}
