//! The HTTP client against a real in-process server.

use perfbench::client::Client;
use tlm_serve::protocol::Service;
use tlm_serve::{Server, ServerConfig};

#[test]
fn reopens_transparently_at_the_keep_alive_cap() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Service::new(8)).expect("server boots");
    let mut client = Client::new(server.addr());
    for _ in 0..10 {
        let reply = client.request("GET", "/healthz", b"").expect("request succeeds");
        assert_eq!(reply.status, 200);
    }
    // Connections close after requests 3, 6 and 9.
    assert_eq!(client.reopens, 3);
    drop(client);
    server.shutdown();
}

#[test]
fn posts_a_body_and_reads_the_reply() {
    let config = ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServerConfig::default() };
    let server = Server::start(config, Service::new(8)).expect("server boots");
    let mut client = Client::new(server.addr());
    let reply = client.request("POST", "/estimate", b"{\"platform\": \"mp3:sw\"}").expect("posts");
    assert_eq!(reply.status, 200, "{}", String::from_utf8_lossy(&reply.body));
    assert!(reply.body.starts_with(b"{"));
    let reply = client.request("POST", "/estimate", b"not json").expect("posts");
    assert_eq!(reply.status, 400);
    assert_eq!(client.reopens, 0);
    drop(client);
    server.shutdown();
}
