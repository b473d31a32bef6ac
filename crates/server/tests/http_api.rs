//! End-to-end tests over a real TCP listener: concurrent evals sharing
//! one index build per generation, mutations absorbed incrementally via
//! the session's delta path, CLI-identical rendering, budgeted
//! minimization, and graceful shutdown.

use std::sync::Arc;

use prov_engine::eval_ucq;
use prov_query::parse_ucq;
use prov_server::{client, serve, Json, ServeConfig, ServerHandle};
use prov_storage::textio::parse_database;

const TABLE_2: &str = "R(a, a) : s1\nR(a, b) : s2\nR(b, a) : s3\nR(b, b) : s4\n";

fn start(db_text: &str) -> (ServerHandle, String) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(), // free port per test: tests run in parallel
        workers: 4,
        ..ServeConfig::default()
    };
    let db = parse_database(db_text).expect("test database parses");
    let handle = serve(config, db).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn json(body: &str) -> Json {
    Json::parse(body).expect("response body is json")
}

#[test]
fn eval_over_tcp_matches_in_process_engine() {
    let (handle, addr) = start(TABLE_2);
    let query = "ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)";
    let (status, body) = client::post_json(&addr, "/eval", &format!(r#"{{"query": "{query}"}}"#))
        .expect("round trip");
    assert_eq!(status, 200);
    let response = json(&body);
    let got: Vec<&str> = response
        .get("results")
        .and_then(Json::as_array)
        .expect("results")
        .iter()
        .filter_map(Json::as_str)
        .collect();

    let q = parse_ucq(&query.replace(';', "\n")).expect("query parses");
    let db = parse_database(TABLE_2).expect("db parses");
    let expected: Vec<String> = eval_ucq(&q, &db)
        .iter()
        .map(|(t, p)| format!("{t}  [{p}]"))
        .collect();
    assert_eq!(got, expected, "server rendering must match the engine");
    handle.shutdown();
}

#[test]
fn concurrent_evals_share_one_index_build() {
    let (handle, addr) = start(TABLE_2);
    let addr = Arc::new(addr);
    let request = r#"{"query": "ans(x) :- R(x,y), R(y,x)"}"#;
    std::thread::scope(|s| {
        for _ in 0..8 {
            let addr = Arc::clone(&addr);
            s.spawn(move || {
                for _ in 0..4 {
                    let (status, _) =
                        client::post_json(&addr, "/eval", request).expect("round trip");
                    assert_eq!(status, 200);
                }
            });
        }
    });
    let (status, body) = client::get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200);
    let stats = json(&body);
    let cache = stats.get("cache").expect("cache");
    let misses = cache.get("misses").and_then(Json::as_u64).expect("misses");
    assert_eq!(misses, 1, "32 concurrent evals, one generation, one build");
    // Racing first requests may each run a full evaluation before the
    // materialized result lands in the store, but once it does every
    // later request shares it without touching the view cache at all —
    // so rebuilds never exceed the race width and nothing delta-applies.
    let rebuilds = cache
        .get("full_rebuilds")
        .and_then(Json::as_u64)
        .expect("full_rebuilds");
    assert!((1..=32).contains(&rebuilds));
    assert_eq!(cache.get("delta_applies").and_then(Json::as_u64), Some(0));
    assert_eq!(
        stats
            .get("endpoints")
            .and_then(|e| e.get("eval"))
            .and_then(|e| e.get("requests"))
            .and_then(Json::as_u64),
        Some(32)
    );
    handle.shutdown();
}

#[test]
fn mutation_bumps_generation_and_delta_applies() {
    let (handle, addr) = start(TABLE_2);
    let eval = r#"{"query": "ans(x) :- R(x,x)"}"#;
    let (_, before) = client::post_json(&addr, "/eval", eval).expect("eval");
    let g0 = json(&before)
        .get("generation")
        .and_then(Json::as_u64)
        .expect("generation");

    let (status, body) = client::post_json(
        &addr,
        "/mutate",
        r#"{"insert": ["R(c, c) : s5"], "remove": ["R(a, a)"]}"#,
    )
    .expect("mutate");
    assert_eq!(status, 200);
    let mutated = json(&body);
    assert_eq!(mutated.get("inserted").and_then(Json::as_u64), Some(1));
    assert_eq!(mutated.get("removed").and_then(Json::as_u64), Some(1));
    let g1 = mutated
        .get("generation")
        .and_then(Json::as_u64)
        .expect("generation");
    assert_ne!(g1, g0, "content mutation must move the generation");
    assert_eq!(
        mutated.get("cache").and_then(Json::as_str),
        Some("delta"),
        "a small mutation must be absorbed by the delta log"
    );

    // Two evals after the mutation: the first reconciles the cached
    // result from the delta log (no rebuild, and the warm views were
    // patched so not even a view-cache miss), the second shares it.
    let (_, first) = client::post_json(&addr, "/eval", eval).expect("eval");
    let (_, second) = client::post_json(&addr, "/eval", eval).expect("eval");
    let first = json(&first);
    let lines: Vec<&str> = first
        .get("results")
        .and_then(Json::as_array)
        .expect("results")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        lines,
        ["(b)  [s4]", "(c)  [s5]"],
        "stale index would still show (a)"
    );
    let cache = json(&second).get("cache").cloned().expect("cache");
    assert_eq!(cache.get("full_rebuilds").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("delta_applies").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert!(
        cache.get("monomials_dropped").and_then(Json::as_u64) >= Some(1),
        "removing R(a,a) must drop its monomial from the cached result"
    );
    handle.shutdown();
}

#[test]
fn text_rendering_load_and_budgeted_minimize() {
    let (handle, addr) = start("");
    // /load replaces the (empty) database.
    let (status, body) = client::post_text(&addr, "/load", TABLE_2).expect("load");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("tuples").and_then(Json::as_u64), Some(4));

    // Accept: text/plain returns the CLI stdout byte-for-byte.
    let (status, body) =
        client::post_json_accept_text(&addr, "/eval", r#"{"query": "ans(x) :- R(x,x)"}"#)
            .expect("eval");
    assert_eq!(status, 200);
    assert_eq!(body, "(a)  [s1]\n(b)  [s4]\n");

    // A one-step budget on a three-variable adjunct exhausts: sound
    // partial plus resume cursor.
    let (status, body) = client::post_json(
        &addr,
        "/minimize",
        r#"{"query": "ans(x) :- R(x,y), R(y,z)", "budget_steps": 1}"#,
    )
    .expect("minimize");
    assert_eq!(status, 200);
    let partial = json(&body);
    assert_eq!(
        partial.get("status").and_then(Json::as_str),
        Some("partial")
    );
    assert!(partial
        .get("cursor")
        .and_then(|c| c.get("completion"))
        .and_then(Json::as_u64)
        .is_some());
    handle.shutdown();
}

#[test]
fn malformed_requests_do_not_wedge_the_server() {
    let (handle, addr) = start(TABLE_2);
    let (status, _) = client::post_json(&addr, "/eval", "{broken").expect("round trip");
    assert_eq!(status, 400);
    let (status, _) = client::post_json(&addr, "/nope", "{}").expect("round trip");
    assert_eq!(status, 404);
    let (status, _) = client::get(&addr, "/eval").expect("round trip");
    assert_eq!(status, 405);
    let (status, _) = client::post_json(&addr, "/mutate", r#"{"insert": ["R(z) : s9"]}"#)
        .expect("arity round trip");
    assert_eq!(
        status, 400,
        "arity mismatch with loaded R is rejected atomically"
    );
    let (status, _) = client::post_json(&addr, "/mutate", r#"{"insert": ["R(z, w) : s1"]}"#)
        .expect("conflict round trip");
    assert_eq!(status, 409, "annotation s1 already tags R(a,a)");
    // Still serving after every error above.
    let (status, _) =
        client::post_json(&addr, "/eval", r#"{"query": "ans(x) :- R(x,x)"}"#).expect("eval");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn removed_evaluator_knobs_on_the_wire() {
    let (handle, addr) = start(TABLE_2);
    let query = "ans(x) :- R(x,y), R(y,x)";
    // `mode` selected an evaluator and `planner` a join planner; both
    // choices are gone, so the fields are ignored unknown fields,
    // answered like the same request without them.
    let results = |body: &str| {
        let (status, response) = client::post_json(&addr, "/eval", body).expect("round trip");
        assert_eq!(status, 200, "{body}");
        json(&response).get("results").cloned().expect("results")
    };
    let plain = results(&format!(r#"{{"query": "{query}"}}"#));
    for field in [
        r#""mode": "tuple""#,
        r#""planner": "syntactic""#,
        r#""planner": "written""#,
    ] {
        assert_eq!(
            results(&format!(r#"{{"query": "{query}", {field}}}"#)),
            plain,
            "{field}"
        );
    }
    handle.shutdown();
}

#[test]
fn removed_minimizer_knob_on_the_wire() {
    let (handle, addr) = start("");
    let query = "ans(x) :- R(x,y), R(y,x)";
    // `memo` switched off the minimizer's memoization; the engine now has
    // one configuration, so the field is an ignored unknown field,
    // answered like the same request without it.
    let minimized = |body: &str| {
        let (status, response) = client::post_json(&addr, "/minimize", body).expect("round trip");
        assert_eq!(status, 200, "{body}");
        json(&response).get("query").cloned().expect("query")
    };
    let plain = minimized(&format!(r#"{{"query": "{query}"}}"#));
    for field in [r#""memo": false"#, r#""memo": "yes""#] {
        assert_eq!(
            minimized(&format!(r#"{{"query": "{query}", {field}}}"#)),
            plain,
            "{field}"
        );
    }
    handle.shutdown();
}

#[test]
fn keepalive_connection_serves_many_requests() {
    let (handle, addr) = start(TABLE_2);
    let eval = r#"{"query": "ans(x) :- R(x,x)"}"#;
    let (_, oneshot) = client::post_json_accept_text(&addr, "/eval", eval).expect("one-shot");

    let mut conn = client::Client::connect(&addr).expect("connect");
    for _ in 0..5 {
        let (status, body) = conn
            .post_json_accept_text("/eval", eval)
            .expect("keep-alive");
        assert_eq!(status, 200);
        assert_eq!(body, oneshot, "keep-alive body must match one-shot");
    }
    // Mixed endpoints on the same connection.
    let (status, _) = conn.get("/stats").expect("stats on same conn");
    assert_eq!(status, 200);

    let (_, stats) = conn.get("/stats").expect("stats");
    let conns = json(&stats)
        .get("connections")
        .cloned()
        .expect("connections");
    let reuses = conns
        .get("keepalive_reuses")
        .and_then(Json::as_u64)
        .expect("reuses");
    assert!(
        reuses >= 6,
        "7 requests on one connection → ≥6 reuses, got {reuses}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (handle, addr) = start(TABLE_2);
    let q1 = r#"{"query": "ans(x) :- R(x,x)"}"#;
    let q2 = r#"{"query": "ans(x) :- R(x,y), R(y,x)"}"#;
    let mut conn = client::Client::connect(&addr).expect("connect");
    let responses = conn
        .pipeline(&[
            (
                "POST",
                "/eval",
                "application/json",
                Some("text/plain"),
                q1.as_bytes(),
            ),
            (
                "POST",
                "/eval",
                "application/json",
                Some("text/plain"),
                q2.as_bytes(),
            ),
            (
                "POST",
                "/eval",
                "application/json",
                Some("text/plain"),
                q1.as_bytes(),
            ),
        ])
        .expect("pipeline");
    assert_eq!(responses.len(), 3);
    let (_, expect1) = client::post_json_accept_text(&addr, "/eval", q1).expect("one-shot");
    let (_, expect2) = client::post_json_accept_text(&addr, "/eval", q2).expect("one-shot");
    assert_eq!(responses[0], (200, expect1.clone()), "first answer, first");
    assert_eq!(responses[1], (200, expect2), "second answer, second");
    assert_eq!(responses[2], (200, expect1), "third answer, third");
    handle.shutdown();
}

#[test]
fn large_results_stream_intact_over_keepalive() {
    // 2000 rows → well past the router's streaming threshold, so the
    // response crosses the wire chunked; the client must reassemble it
    // byte-identically, twice on the same connection.
    let mut db_text = String::new();
    for i in 0..2000 {
        db_text.push_str(&format!("S(v{i:05}) : t{i}\n"));
    }
    let (handle, addr) = start(&db_text);
    let eval = r#"{"query": "ans(x) :- S(x)"}"#;
    let mut conn = client::Client::connect(&addr).expect("connect");
    let (status, first) = conn.post_json_accept_text("/eval", eval).expect("streamed");
    assert_eq!(status, 200);
    assert_eq!(first.lines().count(), 2000);
    assert!(first.starts_with("(v00000)  [t0]\n"));
    assert!(first.ends_with("(v01999)  [t1999]\n"));
    let (_, second) = conn
        .post_json_accept_text("/eval", eval)
        .expect("streamed again");
    assert_eq!(first, second, "same connection, same bytes");
    // JSON mode streams too and still parses.
    let (status, body) = conn.post_json("/eval", eval).expect("streamed json");
    assert_eq!(status, 200);
    let parsed = json(&body);
    assert_eq!(parsed.get("rows").and_then(Json::as_u64), Some(2000));
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_accepting() {
    let (handle, addr) = start(TABLE_2);
    let (status, body) = client::post_json(&addr, "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("status").and_then(Json::as_str),
        Some("shutting-down")
    );
    handle.shutdown(); // joins: must terminate promptly rather than hang
                       // The listener is gone: a fresh connection must now fail (give the
                       // OS a moment to tear the socket down).
    let mut refused = false;
    for _ in 0..100 {
        if client::get(&addr, "/stats").is_err() {
            refused = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(refused, "socket must stop accepting after shutdown");
}
