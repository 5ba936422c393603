//! Admission-control and load-shedding invariants, exercised over real
//! loopback sockets against an in-process server.
//!
//! * Admission is conserved: every session POST is exactly one of
//!   accepted / rejected-by-capacity / shed-by-queue / invalid, and the
//!   server's own counters agree with the client's tally.
//! * A browned-out edge answers 503 to arrivals and recovers when the
//!   factor comes back.
//! * Queue pressure rides the degradation ladder: the shed floor
//!   reported for a slot matches the queue occupancy that preceded it,
//!   and the tier actually used never undercuts the floor.

mod common;

use common::{request, str_field, wait_phase, wait_schedule};
use lpvs_serve::{floor_from_label, serve, ServeConfig};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

fn arrive(device: usize) -> String {
    format!("{{\"action\":\"arrive\",\"device\":{device},\"energy_j\":21000,\"gamma\":0.35}}")
}

fn depart(device: usize) -> String {
    format!("{{\"action\":\"depart\",\"device\":{device}}}")
}

#[test]
fn admission_is_conserved_and_brownouts_answer_503() {
    // 8 devices, 72% headroom: 0.72 * 8 = 5.76 compute units, so
    // exactly 5 concurrent unit-cost sessions fit.
    let handle = serve(ServeConfig::loopback(8)).expect("bind");
    let addr = handle.addr;
    wait_phase(addr, "live", WAIT);

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for device in 0..8 {
        match request(addr, "POST", "/v1/sessions", &arrive(device)).0 {
            202 => accepted += 1,
            429 => rejected += 1,
            s => panic!("unexpected status {s} for arrival {device}"),
        }
    }
    assert_eq!((accepted, rejected), (5, 3), "5.76 capacity admits exactly 5");

    // The server's own ledger agrees with the client's tally.
    {
        let adm = handle.shared().admission.lock().unwrap();
        assert_eq!(adm.accepted, accepted);
        assert_eq!(adm.rejected, rejected);
        assert_eq!(adm.active_sessions() as u64, accepted);
        assert_eq!(adm.accepted + adm.rejected, 8, "every POST accounted once");
    }

    // Brownout to zero: arrivals 503, departures still work.
    assert_eq!(request(addr, "POST", "/v1/brownout", "{\"factor\":0.0}").0, 202);
    let (status, body) = request(addr, "POST", "/v1/sessions", &arrive(6));
    assert_eq!(status, 503, "browned-out edge must refuse arrivals: {body}");
    assert_eq!(request(addr, "POST", "/v1/sessions", &depart(0)).0, 202);

    // Power restored: the freed seat is admittable again.
    assert_eq!(request(addr, "POST", "/v1/brownout", "{\"factor\":1.0}").0, 202);
    assert_eq!(request(addr, "POST", "/v1/sessions", &arrive(6)).0, 202);

    // Validation rejects don't touch the admission ledger.
    assert_eq!(request(addr, "POST", "/v1/sessions", &arrive(1)).0, 422, "duplicate session");
    assert_eq!(request(addr, "POST", "/v1/sessions", &arrive(99)).0, 422, "id past ceiling");
    assert_eq!(request(addr, "POST", "/v1/sessions", &depart(7)).0, 422, "never arrived");
    {
        let adm = handle.shared().admission.lock().unwrap();
        assert_eq!(adm.accepted, 6);
        assert_eq!(adm.rejected, 3);
        assert_eq!(adm.active_sessions(), 5);
    }

    request(addr, "POST", "/v1/shutdown", "{}");
    handle.join();
}

#[test]
fn queue_pressure_rides_the_degradation_ladder() {
    let mut config = ServeConfig::loopback(8);
    config.ops_queue = 8; // tiny bound so occupancy is scriptable
    let handle = serve(config).expect("bind");
    let addr = handle.addr;
    wait_phase(addr, "live", WAIT);

    // Three arrivals (37.5% occupancy: below every shed threshold).
    // One tick decides the slot, and once its decision is served the
    // queue is provably drained.
    for device in 0..3 {
        assert_eq!(request(addr, "POST", "/v1/sessions", &arrive(device)).0, 202);
    }
    assert_eq!(request(addr, "POST", "/v1/tick", "{}").0, 202);
    let slot0 = wait_schedule(addr, 0, WAIT);
    assert_eq!(str_field(&slot0, "shed_floor").as_deref(), Some("exact"), "{slot0}");
    assert_eq!(str_field(&slot0, "tier").as_deref(), Some("exact"), "{slot0}");

    // Six telemetry pushes on the *connected* rows (so their shards
    // really solve) peak at 75% occupancy — the greedy rung.
    let telemetry =
        |device: usize, energy: u32| format!("{{\"device\":{device},\"energy_j\":{energy}}}");
    for i in 0..6 {
        assert_eq!(request(addr, "POST", "/v1/telemetry", &telemetry(i % 3, 20000 - 100 * i as u32)).0, 202);
    }
    assert_eq!(request(addr, "POST", "/v1/tick", "{}").0, 202);
    let slot1 = wait_schedule(addr, 1, WAIT);
    assert_eq!(str_field(&slot1, "shed_floor").as_deref(), Some("greedy"), "{slot1}");
    let tier = floor_from_label(&str_field(&slot1, "tier").unwrap()).unwrap();
    let floor = floor_from_label("greedy").unwrap();
    assert!(tier >= floor, "tier {tier:?} undercuts the shed floor {floor:?}");

    // Fill the queue to the brim: the 8 fitting pushes are acknowledged
    // (the last at 100% occupancy raises the floor to selection reuse),
    // the ninth is shed with a 429 — never queued, never hung.
    for i in 0..8 {
        assert_eq!(request(addr, "POST", "/v1/telemetry", &telemetry(i % 3, 19000 - 100 * i as u32)).0, 202);
    }
    let (status, body) = request(addr, "POST", "/v1/telemetry", &telemetry(0, 15000));
    assert_eq!(status, 429, "a full queue must shed: {body}");
    assert_eq!(request(addr, "POST", "/v1/tick", "{}").0, 202);
    let slot2 = wait_schedule(addr, 2, WAIT);
    assert_eq!(str_field(&slot2, "shed_floor").as_deref(), Some("reused-previous"), "{slot2}");
    let tier2 = floor_from_label(&str_field(&slot2, "tier").unwrap()).unwrap();
    assert!(tier2 >= floor_from_label("reused-previous").unwrap(), "{slot2}");

    // The metrics endpoint accounts the shed and the per-tier solves.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_shed_total"), "missing shed counter:\n{metrics}");
    assert!(metrics.contains("serve_slots_solved_total"), "missing solve counter:\n{metrics}");

    // The operator dashboard's scrape path sees the same counters the
    // raw exposition carries.
    let scraped = lpvs_obs::dashboard::scrape(&addr.to_string()).expect("scrape /metrics");
    let snapshot = lpvs_obs::dashboard::parse_prometheus(&scraped).expect("parse exposition");
    assert!(
        snapshot.counter("serve_shed_total").unwrap_or(0) >= 1,
        "scraped snapshot lost the shed counter:\n{scraped}"
    );
    let table = lpvs_obs::dashboard::render_dashboard(&snapshot, "scraped");
    assert!(table.contains("serve_slots_solved_total"), "dashboard table missing solves:\n{table}");

    request(addr, "POST", "/v1/shutdown", "{}");
    handle.join();
}

#[test]
fn schedules_select_only_connected_sessions() {
    let handle = serve(ServeConfig::loopback(6)).expect("bind");
    let addr = handle.addr;
    wait_phase(addr, "live", WAIT);

    for device in 0..3 {
        assert_eq!(request(addr, "POST", "/v1/sessions", &arrive(device)).0, 202);
    }
    assert_eq!(request(addr, "POST", "/v1/tick", "{}").0, 202);
    let slot0 = wait_schedule(addr, 0, WAIT);
    assert_eq!(str_field(&slot0, "tier").as_deref(), Some("exact"), "{slot0}");
    assert_eq!(str_field(&slot0, "shed_floor").as_deref(), Some("exact"), "{slot0}");
    // Whatever was selected must be one of the three connected rows.
    let selected = slot0.split("\"selected\":[").nth(1).unwrap_or("").split(']').next().unwrap_or("");
    for id in selected.split(',').filter(|s| !s.is_empty()) {
        let id: usize = id.trim().parse().expect("numeric id");
        assert!(id < 3, "disconnected device {id} selected: {slot0}");
    }

    // Unknown slots are a clean 404, junk slots a 400.
    assert_eq!(request(addr, "GET", "/v1/schedule/999", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/schedule/banana", "").0, 400);

    request(addr, "POST", "/v1/shutdown", "{}");
    handle.join();
}
