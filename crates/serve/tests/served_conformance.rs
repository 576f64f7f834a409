//! Served-vs-local conformance: a daemon round trip must reproduce the
//! blessed golden digests bit-for-bit, under either hot-path wire tag. The corpus is loaded back through
//! [`sw_conformance::golden_window_digests`], mapped onto the typed job
//! API, and replayed over a real socket; any divergence means the wire
//! codec, the daemon dispatch, or the executor broke the contract that
//! serving is *transport*, never a second execution semantics.

use sw_bitstream::HotPath;
use sw_conformance::corpus::{golden_window_digests, GoldenDigest};
use sw_conformance::{default_vectors_dir, CaseSpec};
use sw_serve::api::StreamOpen;
use sw_serve::api::{FramePayload, JobKernel};
use sw_serve::{
    Client, Daemon, DaemonConfig, JobError, JobRequest, JobResponse, JobSpec, Listen, MsgKind,
    MIN_VERSION, VERSION,
};

/// Map one corpus case onto the job API, sending `hot_path` as the wire
/// tag. `None` for cases the serving surface does not carry (fault
/// injection is a harness-only axis).
fn request_for(spec: &CaseSpec, hot_path: HotPath) -> Option<JobRequest> {
    if spec.fault_seed.is_some() {
        return None;
    }
    Some(JobRequest {
        tenant: "conformance".into(),
        spec: JobSpec {
            window: spec.window,
            threshold: spec.threshold,
            codec: spec.codec,
            hot_path,
            kernel: JobKernel::parse(spec.kernel.name())
                .expect("corpus kernels are a subset of the job API's"),
            jobs: 0,
            overflow_policy: spec.policy,
            budget_fraction: f64::from(spec.budget_pct) / 100.0,
            ..JobSpec::default()
        },
        frame: FramePayload::from_image(&spec.render()),
        want_frame: false,
    })
}

fn replay(client: &mut Client, golden: &[GoldenDigest], hot_path: HotPath) -> usize {
    let mut replayed = 0;
    for g in golden {
        let Some(req) = request_for(&g.spec, hot_path) else {
            continue;
        };
        let resp = client
            .submit(&req)
            .unwrap_or_else(|e| panic!("case {} failed over the wire: {e}", g.spec.id()));
        assert_eq!(
            resp.digest,
            g.digest,
            "case {} ({:?}): served digest {:016x} != golden {:016x}",
            g.spec.id(),
            hot_path,
            resp.digest,
            g.digest
        );
        replayed += 1;
    }
    replayed
}

/// Same corpus, but every job rides the protocol-v2 row-streaming mode,
/// with the chunk granularity varied per case so read-boundary effects
/// get covered too. Both the digest *and* the stats digest must match
/// the blessed goldens: streaming is transport, never a second execution
/// semantics.
fn replay_streamed(client: &mut Client, golden: &[GoldenDigest], hot_path: HotPath) -> usize {
    let chunkings: [u32; 4] = [1, 3, 8, 1024];
    let mut replayed = 0;
    for (i, g) in golden.iter().enumerate() {
        let Some(req) = request_for(&g.spec, hot_path) else {
            continue;
        };
        let resp = client
            .submit_streamed(&req, chunkings[i % chunkings.len()])
            .unwrap_or_else(|e| panic!("case {} failed streamed: {e}", g.spec.id()));
        assert_eq!(
            resp.digest,
            g.digest,
            "case {} ({:?}) streamed: digest {:016x} != golden {:016x}",
            g.spec.id(),
            hot_path,
            resp.digest,
            g.digest
        );
        replayed += 1;
    }
    replayed
}

#[test]
fn daemon_round_trip_reproduces_the_golden_corpus() {
    let dir = default_vectors_dir();
    let window = golden_window_digests(&dir).expect("vectors readable");
    assert!(
        !window.is_empty(),
        "blessed corpus missing — the golden digests are the test input"
    );

    let daemon = Daemon::start(DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let listen = Listen::Tcp(daemon.local_addr().expect("tcp bound").to_string());
    let mut client = Client::connect(&listen).expect("client connects");

    // The default tag covers the full grid; the retired scalar tag (0)
    // replays the lossless unbounded cells. The daemon ignores the tag,
    // so both must land on the same goldens.
    let full = replay(&mut client, &window, HotPath::Sliced);
    assert!(
        full > 500,
        "expected the full window grid, got {full} cells"
    );
    let scalar_subset: Vec<GoldenDigest> = window
        .iter()
        .filter(|g| g.spec.threshold == 0 && g.spec.policy.is_none())
        .cloned()
        .collect();
    let scalar = replay(&mut client, &scalar_subset, HotPath::Scalar);
    assert!(
        scalar > 50,
        "expected the lossless subset, got {scalar} cells"
    );
}

#[test]
fn streamed_round_trip_reproduces_the_golden_corpus() {
    let dir = default_vectors_dir();
    let window = golden_window_digests(&dir).expect("vectors readable");
    assert!(
        !window.is_empty(),
        "blessed corpus missing — the golden digests are the test input"
    );

    let daemon = Daemon::start(DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let listen = Listen::Tcp(daemon.local_addr().expect("tcp bound").to_string());
    let mut client = Client::connect(&listen).expect("client connects");

    // Every blessed window case rides the row-streaming mode (live
    // streaming for plain window jobs, the buffered fallback for
    // memory-unit/sharded cases — both must land on the goldens), and the
    // scalar tag replays the lossless subset, mirroring the whole-frame
    // split above.
    let full = replay_streamed(&mut client, &window, HotPath::Sliced);
    assert!(
        full > 500,
        "expected the full window grid streamed, got {full} cells"
    );
    let scalar_subset: Vec<GoldenDigest> = window
        .iter()
        .filter(|g| g.spec.threshold == 0 && g.spec.policy.is_none())
        .cloned()
        .collect();
    let scalar = replay_streamed(&mut client, &scalar_subset, HotPath::Scalar);
    assert!(
        scalar > 50,
        "expected the lossless subset streamed, got {scalar} cells"
    );
}

/// Send one `kind` frame at `version` on a fresh raw socket and return
/// the daemon's first reply frame.
fn exchange(addr: &str, kind: MsgKind, payload: &[u8], version: u16) -> (MsgKind, u16, Vec<u8>) {
    use std::io::Read;
    use sw_serve::wire::write_frame_versioned;
    use sw_serve::FrameAssembler;

    let mut s = std::net::TcpStream::connect(addr).expect("raw connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    write_frame_versioned(&mut s, kind, payload, version).expect("frame written");
    let mut asm = FrameAssembler::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = s.read(&mut buf).expect("daemon reply");
        assert!(n > 0, "daemon hung up on a {kind:?} frame");
        asm.push(&buf[..n]);
        if let Some(frame) = asm.next_frame().expect("well-framed reply") {
            return frame;
        }
    }
}

/// Submit `req` as a strict protocol-v1 whole-frame job on a raw socket
/// and decode the reply, asserting the daemon answered in the v1 dialect.
fn submit_v1(addr: &str, req: &JobRequest) -> JobResponse {
    let (kind, version, payload) = exchange(addr, MsgKind::Job, &req.encode(), MIN_VERSION);
    assert_eq!(kind, MsgKind::JobOk);
    assert_eq!(version, MIN_VERSION, "the reply must echo the v1 dialect");
    JobResponse::decode(&payload).expect("v1 response decodes")
}

fn start_tcp_daemon() -> (Daemon, String) {
    let daemon = Daemon::start(DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.local_addr().expect("tcp bound").to_string();
    (daemon, addr)
}

#[test]
fn v1_whole_frame_jobs_still_work_against_the_reactor() {
    let dir = default_vectors_dir();
    let window = golden_window_digests(&dir).expect("vectors readable");
    let (req, want_digest) = window
        .iter()
        .find_map(|g| request_for(&g.spec, HotPath::Sliced).map(|req| (req, g.digest)))
        .expect("at least one servable golden case");

    // Speak strict v1 on a raw socket: the daemon must execute the job
    // and answer in the same dialect — a v1 client never sees a v2 byte.
    let (_daemon, addr) = start_tcp_daemon();
    let resp = submit_v1(&addr, &req);
    assert_eq!(resp.digest, want_digest, "v1 job must land on the golden");
}

#[test]
fn hot_path_wire_tags_are_accepted_and_ignored() {
    use sw_pool::ThreadPool;
    use sw_serve::exec;
    use sw_serve::WireError;
    use sw_telemetry::TelemetryHandle;

    // Requests still carry the hot-path tag of the v1/v2 protocol (0 =
    // the retired scalar selector, 1 = sliced). The daemon no longer
    // reads it: either tag, at either version, whole or streamed, must
    // land on the digest a local `exec::execute` computes.
    let dir = default_vectors_dir();
    let window = golden_window_digests(&dir).expect("vectors readable");
    let lossless = window
        .iter()
        .find(|g| g.spec.threshold == 0 && g.spec.policy.is_none() && g.spec.fault_seed.is_none());
    let lossy = window
        .iter()
        .find(|g| g.spec.threshold > 0 && g.spec.policy.is_none() && g.spec.fault_seed.is_none());
    let cases: Vec<&GoldenDigest> = [lossless, lossy]
        .into_iter()
        .map(|g| g.expect("servable golden case of every kind"))
        .collect();

    let (_daemon, addr) = start_tcp_daemon();
    let mut client = Client::connect(&Listen::Tcp(addr.clone())).expect("client connects");
    let pool = ThreadPool::new(1);
    for g in cases {
        let id = g.spec.id();
        let base = request_for(&g.spec, HotPath::default()).expect("servable");
        let local = exec::execute(&base, &pool, &TelemetryHandle::disabled())
            .unwrap_or_else(|e| panic!("{id}: local exec failed: {e}"))
            .digest;
        assert_eq!(local, g.digest, "{id}: local exec vs golden");
        for hp in HotPath::ALL {
            let req = request_for(&g.spec, hp).expect("servable");
            let decoded = JobRequest::decode(&req.encode()).expect("valid tag decodes");
            assert_eq!(
                decoded.spec.hot_path, hp,
                "{id}: tag must re-encode as sent"
            );
            let v1 = submit_v1(&addr, &req).digest;
            let v2 = client.submit(&req).expect("v2 whole").digest;
            let streamed = client.submit_streamed(&req, 3).expect("v2 streamed").digest;
            for (how, got) in [
                ("v1 whole", v1),
                ("v2 whole", v2),
                ("v2 streamed", streamed),
            ] {
                assert_eq!(got, local, "{id} tag {hp:?} {how}: served vs local exec");
            }
        }
    }

    // Outside input stays strictly decoded: tags beyond 1 are typed errors.
    let spec = &lossless.expect("servable").spec;
    let scalar = request_for(spec, HotPath::Scalar).unwrap().encode();
    let sliced = request_for(spec, HotPath::Sliced).unwrap().encode();
    let diff: Vec<usize> = (0..scalar.len())
        .filter(|&i| scalar[i] != sliced[i])
        .collect();
    assert_eq!(diff.len(), 1, "the tag is one byte");
    for tag in [2u8, 3, 255] {
        let mut bytes = sliced.clone();
        bytes[diff[0]] = tag;
        assert!(
            matches!(
                JobRequest::decode(&bytes),
                Err(WireError::BadTag { what: "hot path", tag: t }) if t == u32::from(tag)
            ),
            "tag {tag} must be rejected"
        );
    }
}

#[test]
fn retired_workload_byte_gets_a_typed_malformed_reply() {
    // The v1/v2 workload byte leads the spec (right after the
    // u32-length-prefixed tenant). Tag 1 named the retired integral
    // workload: a v1 job, a v2 job and a v2 StreamOpen carrying it must
    // each get a well-formed `Malformed` reply naming the tag — never a
    // hang or a desync — and the daemon keeps serving.
    let dir = default_vectors_dir();
    let window = golden_window_digests(&dir).expect("vectors readable");
    let (req, want_digest) = window
        .iter()
        .find_map(|g| request_for(&g.spec, HotPath::Sliced).map(|req| (req, g.digest)))
        .expect("at least one servable golden case");
    let at = 4 + req.tenant.len();
    let retag = |mut bytes: Vec<u8>| {
        assert_eq!(bytes[at], 0, "specs always write workload byte 0");
        bytes[at] = 1;
        bytes
    };
    let open = StreamOpen {
        tenant: req.tenant.clone(),
        spec: req.spec.clone(),
        width: req.frame.width,
        height: req.frame.height,
        want_frame: false,
    };

    let (_daemon, addr) = start_tcp_daemon();
    for (how, kind, payload, version) in [
        ("v1 job", MsgKind::Job, retag(req.encode()), MIN_VERSION),
        ("v2 job", MsgKind::Job, retag(req.encode()), VERSION),
        (
            "v2 StreamOpen",
            MsgKind::StreamOpen,
            retag(open.encode()),
            VERSION,
        ),
    ] {
        let (reply, reply_version, body) = exchange(&addr, kind, &payload, version);
        assert_eq!(reply, MsgKind::JobErr, "{how}: typed error frame");
        assert_eq!(reply_version, version, "{how}: reply echoes the dialect");
        match JobError::decode(&body).expect("well-formed JobError") {
            JobError::Malformed(detail) => {
                assert!(detail.contains("workload"), "{how}: {detail}")
            }
            other => panic!("{how}: expected Malformed, got {other:?}"),
        }
    }

    // A fresh connection still lands a window golden.
    let mut client = Client::connect(&Listen::Tcp(addr)).expect("client connects");
    let resp = client.submit(&req).expect("window job after the rejects");
    assert_eq!(resp.digest, want_digest);
}
