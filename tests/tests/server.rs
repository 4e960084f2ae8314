//! End-to-end tests of the `pi-server` TCP frontend.
//!
//! The central property (this PR's acceptance bar): **every response a
//! concurrent client observes is byte-identical to a single-threaded
//! replay of the statement prefix the response's `epochs` field names.**
//! Each write ack carries `(shard, seq)`; each query response carries
//! `epochs=<shard>:<epoch>@<seq>,...`. A query served at `shard s @ seq
//! q` must therefore equal the index-free reference answer over exactly
//! the statements with sequence `<= q` on each shard — no torn epochs,
//! no half-applied statements, no cache staleness, regardless of how
//! many clients were writing at the time.
//!
//! The replay applies each acknowledged statement the way the shard
//! writer does: through `Statement::validate` / `Statement::apply`,
//! skipping (as a counted no-op) one that does not fit the state it
//! reaches — an `OK seq=n` acknowledges admission, not application.
//!
//! The suite also pins the two operational behaviours the wire protocol
//! documents: backpressure (a full statement queue rejects with
//! `ServerBusy` instead of blocking) and clean-shutdown drain (every
//! acknowledged statement reaches a published epoch before `shutdown`
//! returns).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use pi_planner::{execute, Plan, NO_INDEXES};
use pi_server::{
    batch_rows, body_lines, canonical_rows, header, header_field, render_rows, Client, QuerySpec,
    Server, ServerConfig,
};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use patchindex::{Constraint, Design, IndexedTable, MaintenanceMode, MaintenancePolicy, Statement};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

/// Parses `epochs=<shard>:<epoch>@<seq>,...` into per-shard seq watermarks.
fn parse_epoch_seqs(resp: &str, nshards: usize) -> Vec<u64> {
    let field = header_field(resp, "epochs").expect("epochs field");
    let mut seqs = vec![0u64; nshards];
    for tok in field.split(',') {
        let (shard, rest) = tok.split_once(':').expect("shard:epoch@seq");
        let (_epoch, seq) = rest.split_once('@').expect("epoch@seq");
        seqs[shard.parse::<usize>().unwrap()] = seq.parse().unwrap();
    }
    seqs
}

/// One client's recorded traffic: acked statements and full query
/// responses, in the order sent.
struct ClientLog {
    /// (shard, seq, statement) per acknowledged write.
    writes: Vec<(usize, u64, Statement)>,
    /// (spec text, raw response) per `QUERY`.
    reads: Vec<(String, String)>,
}

/// Replays one shard's acknowledged statements with `seq <= upto` on a
/// fresh table, skipping — as the shard writer does — those that do not
/// validate against the state they reach. Returns the table and the
/// number skipped.
fn replay(log: &BTreeMap<u64, Statement>, upto: u64, partitions: usize) -> (IndexedTable, u64) {
    let mut it = IndexedTable::new(Table::new(
        "ref",
        schema(),
        partitions,
        Partitioning::RoundRobin,
    ));
    let mut rejected = 0;
    for stmt in log.range(..=upto).map(|(_, s)| s) {
        match stmt.validate(it.table(), it.indexes().len()) {
            Ok(()) => stmt.apply(&mut it),
            Err(_) => rejected += 1,
        }
    }
    it.flush_maintenance();
    (it, rejected)
}

/// Replays the statement prefix `seq <= watermark[shard]` for every
/// shard and returns the index-free reference response for `spec` —
/// byte-for-byte what the server should have sent. Each shard runs the
/// unlimited plan, so a wrong `limit` pushdown in the fan-out plan
/// cannot hide in the reference.
fn reference_response(
    spec_text: &str,
    watermarks: &[u64],
    by_shard: &[BTreeMap<u64, Statement>],
    partitions_per_shard: usize,
) -> String {
    let spec = QuerySpec::parse(spec_text).unwrap();
    let mut plan = Plan::scan(spec.scan.clone());
    if let Some(d) = &spec.distinct {
        plan = plan.distinct(d.clone());
    }
    let mut rows = Vec::new();
    for (sid, log) in by_shard.iter().enumerate() {
        let (it, _) = replay(log, watermarks[sid], partitions_per_shard);
        rows.extend(batch_rows(&execute(&plan, it.table(), NO_INDEXES)));
    }
    let rows = canonical_rows(&spec, rows);
    format!(
        "OK rows={} cols={}{}",
        rows.len(),
        spec.output_width(),
        render_rows(&rows)
    )
}

/// A counter's value in a `METRICS` document (0 when absent).
fn metric(doc: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    doc.find(&key).map_or(0, |at| {
        let digits: String = doc[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    })
}

/// Strips the `epochs=...` token from a response header so reference
/// and served responses compare on everything the replay determines
/// (epoch numbers depend on publish cadence, not on content).
fn without_epochs(resp: &str) -> String {
    let hdr: Vec<&str> = header(resp)
        .split(' ')
        .filter(|tok| !tok.starts_with("epochs="))
        .collect();
    let mut out = hdr.join(" ");
    for line in body_lines(resp) {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// Three clients hammer a 2-shard server with interleaved single-row
/// inserts, modifies and deletes of low rowIDs, and queries; every query
/// response must match the single-threaded index-free replay of its
/// exact statement prefix. A modify or delete may fail admission, or —
/// when another client's delete lands first — pass admission and be
/// rejected by the writer; the replay skips exactly those, and each
/// shard's `statements_rejected` counter must agree.
#[test]
fn concurrent_clients_match_prefix_replay() {
    const NSHARDS: usize = 2;
    const PARTS: usize = 2;
    const CLIENTS: usize = 3;
    const OPS: usize = 120;
    const SPECS: [&str; 4] = [
        "scan 0,1 | sort 0:asc",
        "scan 1 | distinct 0",
        "scan 0,1 | sort 1:desc,0:asc | limit 7",
        "scan 1,0",
    ];

    let cfg = ServerConfig {
        shards: NSHARDS,
        publish_every: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), PARTS).unwrap();
    let addr = server.addr();

    let logs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for cid in 0..CLIENTS {
            let logs = &logs;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + cid as u64);
                let mut client = Client::connect(addr).unwrap();
                let mut log = ClientLog {
                    writes: Vec::new(),
                    reads: Vec::new(),
                };
                for i in 0..OPS {
                    let roll = rng.gen_range(0..10);
                    if roll < 3 {
                        // Globally unique key so rows stay tellable apart.
                        let k = (cid * 1_000_000 + i) as i64;
                        let v = rng.gen_range(0..50i64);
                        let resp = client.request(&format!("INSERT {k},{v}")).unwrap();
                        let acks = header_field(&resp, "shards").expect("insert ack");
                        let (shard, seq) = acks.split_once(':').unwrap();
                        log.writes.push((
                            shard.parse().unwrap(),
                            seq.parse().unwrap(),
                            Statement::Insert(vec![vec![Value::Int(k), Value::Int(v)]]),
                        ));
                    } else if roll < 6 {
                        let sid = rng.gen_range(0..NSHARDS);
                        let pid = rng.gen_range(0..PARTS);
                        let rids: Vec<usize> = (0..rng.gen_range(1..3))
                            .map(|_| rng.gen_range(0..8))
                            .collect();
                        let (cmd, stmt) = if roll == 4 {
                            let vals: Vec<i64> =
                                rids.iter().map(|_| rng.gen_range(0..50)).collect();
                            let text: Vec<String> = rids
                                .iter()
                                .zip(&vals)
                                .map(|(r, v)| format!("{r}={v}"))
                                .collect();
                            (
                                format!("MODIFY {sid} {pid} 1 {}", text.join(",")),
                                Statement::Modify {
                                    pid,
                                    rids,
                                    col: 1,
                                    values: vals.into_iter().map(Value::Int).collect(),
                                },
                            )
                        } else {
                            let text: Vec<String> = rids.iter().map(usize::to_string).collect();
                            (
                                format!("DELETE {sid} {pid} {}", text.join(",")),
                                Statement::Delete { pid, rids },
                            )
                        };
                        let resp = client.request(&cmd).unwrap();
                        match header_field(&resp, "seq") {
                            Some(seq) => log.writes.push((sid, seq.parse().unwrap(), stmt)),
                            None => assert!(resp.starts_with("ERR BadValue "), "{cmd}: {resp}"),
                        }
                    } else {
                        let spec = SPECS[rng.gen_range(0..SPECS.len())];
                        let resp = client.request(&format!("QUERY {spec}")).unwrap();
                        assert!(resp.starts_with("OK "), "query failed: {resp}");
                        log.reads.push((spec.to_string(), resp));
                    }
                }
                logs.lock().unwrap().push(log);
            });
        }
    });

    let logs = logs.into_inner().unwrap();
    // Merge all clients' write acks into per-shard seq → statement maps.
    // Seq order is apply order (assigned under the enqueue lock), so the
    // merged map *is* each shard's statement log.
    let mut by_shard: Vec<BTreeMap<u64, Statement>> = vec![BTreeMap::new(); NSHARDS];
    for log in &logs {
        for (shard, seq, stmt) in &log.writes {
            let prev = by_shard[*shard].insert(*seq, stmt.clone());
            assert!(prev.is_none(), "duplicate seq {seq} on shard {shard}");
        }
    }
    let mut audited = 0;
    for log in &logs {
        for (spec, resp) in &log.reads {
            let watermarks = parse_epoch_seqs(resp, NSHARDS);
            let expect = reference_response(spec, &watermarks, &by_shard, PARTS);
            assert_eq!(
                without_epochs(resp),
                expect,
                "divergence for {spec:?} at watermarks {watermarks:?}"
            );
            audited += 1;
        }
    }
    assert!(audited > 50, "too few queries audited: {audited}");

    // PUBLISH queues behind every acked statement, so once it returns
    // the writers have judged them all.
    let mut client = Client::connect(addr).unwrap();
    client.request("PUBLISH").unwrap();
    let metrics = client.request("METRICS").unwrap();
    for (sid, log) in by_shard.iter().enumerate() {
        let (_, rejected) = replay(log, u64::MAX, PARTS);
        assert_eq!(
            metric(&metrics, &format!("shard{sid}.statements_rejected")),
            rejected,
            "shard {sid}"
        );
    }
    server.shutdown();
}

/// An admitted statement that no longer fits the state it reaches the
/// writer in is a counted no-op, not a dead shard. With the writer
/// parked, `DELETE` empties the partition and a `MODIFY` of a row that
/// delete removes still passes admission (checked against the last
/// published snapshot).
#[test]
fn rejected_statement_is_a_counted_noop() {
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut log = BTreeMap::new();
    let mut send = |client: &mut Client, cmd: &str, stmt: Statement| {
        let resp = client.request(cmd).unwrap();
        assert!(resp.starts_with("OK "), "{cmd}: {resp}");
        // `OK shard=0 seq=n` for MODIFY/DELETE, `OK shards=0:n` for INSERT.
        let seq = header_field(&resp, "seq")
            .or_else(|| header_field(&resp, "shards")?.strip_prefix("0:"))
            .unwrap();
        log.insert(seq.parse::<u64>().unwrap(), stmt);
    };
    let row = |k: i64, v: i64| vec![Value::Int(k), Value::Int(v)];
    send(
        &mut client,
        "INSERT 1,10;2,20;3,30",
        Statement::Insert(vec![row(1, 10), row(2, 20), row(3, 30)]),
    );
    client.request("PUBLISH").unwrap();

    let hold = server.hold_shard(0);
    send(
        &mut client,
        "DELETE 0 0 0,1,2",
        Statement::Delete {
            pid: 0,
            rids: vec![0, 1, 2],
        },
    );
    send(
        &mut client,
        "MODIFY 0 0 1 2=99",
        Statement::Modify {
            pid: 0,
            rids: vec![2],
            col: 1,
            values: vec![Value::Int(99)],
        },
    );
    drop(hold);

    send(
        &mut client,
        "INSERT 4,40",
        Statement::Insert(vec![row(4, 40)]),
    );
    let resp = client.request("PUBLISH").unwrap();
    assert!(resp.starts_with("OK "), "{resp}");
    let metrics = client.request("METRICS").unwrap();
    assert_eq!(
        metric(&metrics, "shard0.statements_rejected"),
        1,
        "{metrics}"
    );
    assert_eq!(replay(&log, u64::MAX, 1).1, 1);

    for spec in ["scan 0,1 | sort 0:asc", "scan 1"] {
        let resp = client.request(&format!("QUERY {spec}")).unwrap();
        let watermarks = parse_epoch_seqs(&resp, 1);
        assert_eq!(watermarks, vec![4]);
        assert_eq!(
            without_epochs(&resp),
            reference_response(spec, &watermarks, std::slice::from_ref(&log), 1)
        );
    }
    server.shutdown();
}

/// With the writer parked, exactly `queue_capacity` statements are
/// admitted and the next is rejected `ServerBusy`; releasing the writer
/// drains the queue and the admitted rows become visible.
#[test]
fn backpressure_rejects_when_queue_full() {
    let cfg = ServerConfig {
        shards: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let hold = server.hold_shard(0);
    for i in 0..4 {
        let resp = client.request(&format!("INSERT {i},{i}")).unwrap();
        assert!(resp.starts_with("OK "), "statement {i} rejected: {resp}");
    }
    let resp = client.request("INSERT 4,4").unwrap();
    assert!(
        resp.starts_with("ERR ServerBusy "),
        "expected ServerBusy, got: {resp}"
    );
    // The connection survives admission rejection — only framing errors
    // close it.
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    drop(hold);
    // Until the writer takes its first message the queue is still full,
    // and PUBLISH is admitted through the same queue: retry past
    // `ServerBusy` as a client would.
    while client
        .request("PUBLISH")
        .unwrap()
        .starts_with("ERR ServerBusy ")
    {
        std::thread::yield_now();
    }
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("4"));

    let metrics = client.request("METRICS").unwrap();
    assert!(
        metrics.contains("server.busy_rejections\":{\"count\":1")
            || metrics.contains("\"server.busy_rejections\":1")
            || metrics.contains("busy_rejections"),
        "busy rejection not surfaced in metrics: {metrics}"
    );
    server.shutdown();
}

/// Statements acked but not yet published when `shutdown` is called are
/// drained through a final publish: every ack is visible in the shard
/// tables after shutdown returns.
#[test]
fn clean_shutdown_drains_acked_statements() {
    const NSHARDS: usize = 2;
    const ROWS: i64 = 60;
    let cfg = ServerConfig {
        shards: NSHARDS,
        // Far beyond the statement count: nothing publishes during the
        // run, so visibility after shutdown proves the drain path.
        publish_every: 1_000_000,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for k in 0..ROWS {
        let resp = client.request(&format!("INSERT {k},{}", k * 10)).unwrap();
        assert!(resp.starts_with("OK "), "insert {k} failed: {resp}");
    }
    // Nothing published yet: reads still see the empty epoch.
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("0"));

    let tables = server.tables();
    server.shutdown();

    let plan = QuerySpec::parse("scan 0").unwrap().fanout_plan();
    let mut total = 0;
    for table in &tables {
        let snap = table.snapshot();
        assert!(snap.epoch() > 0, "shutdown must publish the drained prefix");
        total += execute(&plan, snap.table(), NO_INDEXES).len();
    }
    assert_eq!(total as i64, ROWS, "acked statements lost in shutdown");
}

/// `FLUSH` is the `PUBLISH` barrier answering a bare `OK`. With
/// `publish_every` beyond the statement count nothing is visible before
/// it; after it every acknowledged row is, no shard snapshot carries
/// staged maintenance — the deferred shard's included — and a NUC
/// distinct binds its index on every shard.
#[test]
fn flush_publishes_fully_maintained_epochs() {
    const ROWS: i64 = 40;
    let table = |policy: MaintenancePolicy| {
        let mut t = Table::new("t", schema(), 2, Partitioning::RoundRobin);
        for pid in 0..2 {
            let vals: Vec<i64> = (pid * 100..pid * 100 + 100).collect();
            t.load_partition(
                pid as usize,
                &[ColumnData::Int(vals.clone()), ColumnData::Int(vals)],
            );
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t).with_policy(policy);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it
    };
    let deferred = MaintenancePolicy {
        mode: MaintenanceMode::Deferred {
            flush_rows: usize::MAX,
        },
        ..MaintenancePolicy::default()
    };
    let cfg = ServerConfig {
        shards: 2,
        publish_every: 1_000_000,
        ..ServerConfig::default()
    };
    let tables = vec![table(MaintenancePolicy::default()), table(deferred)];
    let server = Server::start(cfg, tables).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for k in 0..ROWS {
        // Every inserted v duplicates a preloaded value on both shards.
        let resp = client
            .request(&format!("INSERT {},{}", 1000 + k, k % 10))
            .unwrap();
        assert!(resp.starts_with("OK "), "insert {k} failed: {resp}");
    }
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("400"));

    assert_eq!(client.request("FLUSH").unwrap(), "OK");
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(
        header_field(&resp, "count"),
        Some(&*(400 + ROWS).to_string())
    );
    for table in server.tables() {
        let snap = table.snapshot();
        assert!(snap.table().visible_len() > 200, "both shards got rows");
        assert!(snap.indexes().iter().all(|idx| !idx.has_pending()));
        snap.check_consistency();
    }
    let resp = client.request("EXPLAIN scan 1 | distinct 0").unwrap();
    assert_eq!(resp.matches("slots bound [0]").count(), 2, "{resp}");
    server.shutdown();
}

/// Every documented error code surfaces with its wire token, and only
/// framing errors close the connection.
#[test]
fn error_codes_and_line_mode() {
    let server = Server::empty(ServerConfig::default(), schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (cmd, code) in [
        ("FROBNICATE", "BadCommand"),
        ("QUERY scan 9", "BadPlan"),
        ("QUERY scan 0 | sort 0:up", "BadPlan"),
        ("INSERT x,1", "BadValue"),
        ("INSERT 1", "BadValue"),
        ("MODIFY 7 0 0 0=1", "BadShard"),
        ("DELETE 0 9 0", "BadValue"),
    ] {
        let resp = client.request(cmd).unwrap();
        assert!(
            resp.starts_with(&format!("ERR {code} ")),
            "{cmd:?}: expected {code}, got {resp:?}"
        );
    }
    // The same session keeps serving after recoverable errors.
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    // Line mode round-trip: a human typing into `nc` gets dot-stuffed,
    // dot-terminated responses.
    let mut nc = Client::connect(server.addr()).unwrap();
    assert_eq!(nc.request_line_mode("PING").unwrap(), "OK pong");
    nc.request_line_mode("INSERT 1,10;2,20").unwrap();
    nc.request_line_mode("PUBLISH").unwrap();
    let resp = nc.request_line_mode("QUERY scan 1 | sort 0:asc").unwrap();
    assert_eq!(body_lines(&resp), vec!["10", "20"]);

    // A malformed frame gets ERR BadFrame and the connection closes.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"3x\nabc").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("ERR BadFrame "), "got: {buf:?}");
        // read_to_string returning means the server closed the stream.
    }
    server.shutdown();
}

/// `MODIFY` and `DELETE` address physical rows through the wire and the
/// results match direct table mutation semantics.
#[test]
fn modify_and_delete_round_trip() {
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("INSERT 1,10;2,20;3,30").unwrap();
    client.request("PUBLISH").unwrap();

    let resp = client.request("MODIFY 0 0 1 1=99").unwrap();
    assert!(resp.starts_with("OK shard=0 "), "{resp}");
    let resp = client.request("DELETE 0 0 0").unwrap();
    assert!(resp.starts_with("OK shard=0 "), "{resp}");
    client.request("PUBLISH").unwrap();

    let resp = client.request("QUERY scan 1 | sort 0:asc").unwrap();
    assert_eq!(body_lines(&resp), vec!["30", "99"]);
    server.shutdown();
}

/// `limit` is pushed to the shards under the canonical order. Rows tied
/// on the sort key sit in each shard in the reverse of their tie-break
/// order, so a shard that kept its first `limit` rows by the sort key
/// alone would send the wrong ones and the combine could not recover.
#[test]
fn limit_pushdown_keeps_the_canonical_tie_break() {
    let shard = |keys: &[i64]| {
        let mut it = IndexedTable::new(Table::new("t", schema(), 1, Partitioning::RoundRobin));
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .map(|&k| vec![Value::Int(k), Value::Int(0)])
            .collect();
        it.insert(&rows);
        it
    };
    let tables = vec![
        shard(&[20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 1]),
        shard(&[30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 2]),
    ];
    let server = Server::start(ServerConfig::with_shards(2), tables).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .request("QUERY scan 0,1 | sort 1:asc | limit 3")
        .unwrap();
    assert_eq!(body_lines(&resp), vec!["1\t0", "2\t0", "11\t0"], "{resp}");
    let resp = client
        .request("QUERY scan 0 | sort 0:desc | limit 2")
        .unwrap();
    assert_eq!(body_lines(&resp), vec!["30", "29"], "{resp}");
    for (spec, count) in [
        ("scan 0,1 | sort 1:asc | limit 3", "3"),
        ("scan 1 | distinct 0 | limit 3", "1"),
        ("scan 0", "22"),
    ] {
        let resp = client.request(&format!("COUNT {spec}")).unwrap();
        assert_eq!(header_field(&resp, "count"), Some(count), "{spec}: {resp}");
    }
    server.shutdown();
}

/// Seeded wire fuzzing over a 2-shard server, on one thread: random
/// bytes in framed and line mode on throwaway connections, and
/// well-formed-looking INSERT / MODIFY / DELETE with out-of-range or
/// malformed shards, partitions, rows, columns, widths and values. Every
/// request gets an `OK` or `ERR` answer on a live connection; after each
/// burst PING, INSERT and PUBLISH still answer `OK` and every shard's
/// writer is still applying statements.
#[test]
fn fuzzed_wire_input_never_breaks_the_server() {
    const BURSTS: usize = 24;
    const PER_BURST: usize = 40;
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ]);
    let server = Server::empty(ServerConfig::with_shards(2), schema, 2).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xF022);
    let mut client = Client::connect(server.addr()).unwrap();
    // Three times in four the valid token, else one that is out of
    // range, of the wrong type or no token at all.
    let pick = |rng: &mut SmallRng, valid: String| -> String {
        const BAD: [&str; 8] = [
            "-1",
            "x",
            "",
            "99999999999999999999",
            "64",
            "1.5",
            "a\tb",
            "-0",
        ];
        if rng.gen_range(0..4) > 0 {
            valid
        } else {
            BAD[rng.gen_range(0..BAD.len())].to_string()
        }
    };
    // A valid literal for column `col` of the schema above.
    let literal = |rng: &mut SmallRng, col: usize| -> String {
        match col {
            0 | 1 => rng.gen_range(-5..50).to_string(),
            2 => "2.5".into(),
            _ => "s".into(),
        }
    };
    let mut statements = [0u64; 2];
    for burst in 0..BURSTS {
        for _ in 0..PER_BURST {
            let nrids = rng.gen_range(1..4);
            let rids: Vec<String> = (0..nrids)
                .map(|_| {
                    let rid = rng.gen_range(0..6).to_string();
                    pick(&mut rng, rid)
                })
                .collect();
            let sid = rng.gen_range(0..2).to_string();
            let sid = pick(&mut rng, sid);
            let pid = rng.gen_range(0..2).to_string();
            let pid = pick(&mut rng, pid);
            let cmd = match rng.gen_range(0..3) {
                0 => {
                    let rows: Vec<String> = (0..rng.gen_range(1..4))
                        .map(|_| {
                            let width = [4, 4, 4, 3, 5][rng.gen_range(0..5)];
                            let cells: Vec<String> = (0..width)
                                .map(|col| {
                                    let v = literal(&mut rng, col % 4);
                                    pick(&mut rng, v)
                                })
                                .collect();
                            cells.join(",")
                        })
                        .collect();
                    format!("INSERT {}", rows.join(";"))
                }
                1 => {
                    let col = rng.gen_range(0..4);
                    let pairs: Vec<String> = rids
                        .iter()
                        .map(|rid| {
                            let v = literal(&mut rng, col);
                            format!("{rid}={}", pick(&mut rng, v))
                        })
                        .collect();
                    let col = pick(&mut rng, col.to_string());
                    format!("MODIFY {sid} {pid} {col} {}", pairs.join(","))
                }
                _ => format!("DELETE {sid} {pid} {}", rids.join(",")),
            };
            let resp = client.request(&cmd).unwrap();
            assert!(
                resp.starts_with("OK ")
                    || ["BadCommand", "BadValue", "BadShard", "ServerBusy"]
                        .iter()
                        .any(|code| resp.starts_with(&format!("ERR {code} "))),
                "{cmd:?}: {resp:?}"
            );
        }
        for framed in [true, false] {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let len = rng.gen_range(0..200);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            if framed {
                let prefix = format!("{}\n", rng.gen_range(0..400));
                bytes.splice(0..0, prefix.into_bytes());
            } else {
                // Keep the first byte off the digits, which select framing.
                bytes.insert(0, b'A' + rng.gen_range(0..26));
                bytes.push(b'\n');
            }
            raw.write_all(&bytes).unwrap();
            raw.shutdown(Shutdown::Write).unwrap();
            let mut answer = Vec::new();
            raw.read_to_end(&mut answer)
                .expect("the server answers and closes the connection");
        }
        assert_eq!(client.request("PING").unwrap(), "OK pong");
        // Keys 0..16 route to both shards.
        let rows: Vec<String> = (0..16).map(|k| format!("{k},{burst},0.5,r")).collect();
        let resp = client
            .request(&format!("INSERT {}", rows.join(";")))
            .unwrap();
        let acks = header_field(&resp, "shards").unwrap_or_else(|| panic!("{resp}"));
        assert!(acks.contains("0:") && acks.contains("1:"), "{resp}");
        let resp = client.request("PUBLISH").unwrap();
        assert!(resp.starts_with("OK epochs="), "{resp}");
        let metrics = client.request("METRICS").unwrap();
        for (sid, last) in statements.iter_mut().enumerate() {
            let now = metric(&metrics, &format!("shard{sid}.statements"));
            assert!(now > *last, "shard {sid} stopped applying statements");
            *last = now;
        }
    }
    server.shutdown();
}
