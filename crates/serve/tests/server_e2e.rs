//! End-to-end over real sockets: bind, ping, submit the `.scenario` text
//! format over the wire, verify cold/warm provenance and byte-identical
//! bodies, protocol errors, stats, shutdown — on TCP and (on Unix) a
//! Unix-domain socket.

use regshare_bench::{render_report, RunOptions, Scenario, VariantSpec};
use regshare_serve::client::Connection;
use regshare_serve::engine::{Engine, EngineConfig, Format};
use regshare_serve::server::Server;
use std::path::PathBuf;
use std::sync::Arc;

fn tiny(name: &str) -> Scenario {
    Scenario::builder(name)
        .options(RunOptions::default().warmup(500).measure(1_500))
        .workloads(&["crafty"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("regshare-serve-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_server(addr: &str, dir: &TempDir) -> (String, std::thread::JoinHandle<()>, Arc<Engine>) {
    let engine = Arc::new(
        Engine::new(EngineConfig {
            cache_dir: dir.0.join("cache").to_str().unwrap().to_string(),
            workers: 2,
            ..EngineConfig::default()
        })
        .unwrap(),
    );
    let server = Server::bind(addr, Arc::clone(&engine)).unwrap();
    let bound = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (bound, handle, engine)
}

#[test]
fn tcp_end_to_end() {
    let dir = TempDir::new("tcp");
    // Port 0: the OS picks a free port; local_addr reports it.
    let (addr, handle, _) = start_server("127.0.0.1:0", &dir);
    let mut conn = Connection::connect(&addr, 5).unwrap();

    // Liveness.
    let pong = conn.ping().unwrap().unwrap();
    assert_eq!(pong.meta, "pong len=0");

    // Cold run: the checked-in text format is the wire format.
    let scenario = tiny("e2e_tcp");
    let cold = conn
        .run(&scenario.render(), Format::Table)
        .unwrap()
        .unwrap();
    assert_eq!(cold.meta_field("cells"), Some(2));
    assert_eq!(cold.meta_field("computed"), Some(2));
    let grid = scenario.to_sweep().unwrap().run().unwrap();
    assert_eq!(cold.body, render_report(&scenario, &grid).unwrap());

    // Warm run on a second connection: fully cached, byte-identical.
    let mut conn2 = Connection::connect(&addr, 0).unwrap();
    let warm = conn2
        .run(&scenario.render(), Format::Table)
        .unwrap()
        .unwrap();
    assert_eq!(warm.meta_field("computed"), Some(0));
    assert_eq!(warm.meta_field("cached"), Some(2));
    assert_eq!(warm.body, cold.body);

    // A bad scenario is a typed wire error, and the connection survives.
    let err = conn
        .run("scenario bad\nworkload no_such_workload\n", Format::Table)
        .unwrap()
        .unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(conn.ping().unwrap().is_ok(), "connection still usable");

    // Counters made it into stats.
    let stats = conn.stats().unwrap().unwrap();
    assert!(stats.body.contains("computed_cells 2"), "{}", stats.body);
    assert!(stats.body.contains("cache_entries 2"), "{}", stats.body);

    // Shutdown stops the accept loop and joins cleanly.
    let bye = conn.shutdown().unwrap().unwrap();
    assert_eq!(bye.meta, "bye len=0");
    handle.join().unwrap();
}

#[test]
fn unknown_variant_is_one_err_line_and_daemon_keeps_serving() {
    let dir = TempDir::new("unknown-variant");
    let (addr, handle, _) = start_server("127.0.0.1:0", &dir);
    let mut conn = Connection::connect(&addr, 5).unwrap();

    // A variant naming a config preset that does not exist: the reply is
    // exactly one typed `err` line — the daemon neither panics nor drops
    // the connection.
    let bad = "name = \"bad_variant\"\nwarmup = 500\nmeasure = 1500\n\
               \n[variant.base]\npreset = \"hpca16\"\n\
               \n[variant.doom]\npreset = \"no_such_preset\"\n";
    let err = conn.run(bad, Format::Table).unwrap().unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(!err.contains('\n'), "error replies are one line");

    // Where a run is checkpointed is a run plan, not part of a scenario: a
    // request that carries the removed key is refused the same way,
    // naming it.
    let ckpt = "name = \"ckpt_key\"\nresume_from = \"x.ckpt\"\n\
                \n[variant.base]\npreset = \"hpca16\"\n";
    let err = conn.run(ckpt, Format::Table).unwrap().unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(err.contains("unknown key \"resume_from\""), "got {err:?}");
    assert!(!err.contains('\n'), "error replies are one line");

    // The same connection immediately serves a real request — an
    // assembled corpus kernel addressed through the text format.
    let good = "name = \"after_err\"\nkind = \"asm\"\nkernel = \"quicksort\"\n\
                warmup = 500\nmeasure = 1500\n\
                \n[variant.base]\npreset = \"hpca16\"\n";
    let ok = conn.run(good, Format::Table).unwrap().unwrap();
    assert_eq!(ok.meta_field("cells"), Some(1));
    assert!(ok.body.contains("asm-quicksort"), "{}", ok.body);

    conn.shutdown().unwrap().unwrap();
    handle.join().unwrap();
}

#[test]
fn asm_path_requests_never_read_host_files() {
    let dir = TempDir::new("host-path");
    std::fs::create_dir_all(&dir.0).unwrap();
    let (addr, handle, engine) = start_server("127.0.0.1:0", &dir);
    let mut conn = Connection::connect(&addr, 5).unwrap();

    // A readable file whose text would surface in an assembler error.
    let secret = dir.0.join("secret.asm");
    std::fs::write(&secret, "    host_secret_token r1\n").unwrap();
    let request = format!(
        "name = \"host_path\"\nkind = \"asm\"\npath = \"{}\"\n\
         warmup = 500\nmeasure = 1500\n\
         \n[variant.base]\npreset = \"hpca16\"\n",
        secret.to_str().unwrap()
    );
    let err = conn.run(&request, Format::Table).unwrap().unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(err.contains("host files"), "got {err:?}");
    assert!(
        !err.contains("host_secret_token"),
        "file content leaked: {err:?}"
    );
    assert_eq!(engine.computed_cells(), 0);

    // Embedded kernels still serve.
    let good = "name = \"embedded\"\nkind = \"asm\"\nkernel = \"matmul\"\n\
                warmup = 500\nmeasure = 1500\n\
                \n[variant.base]\npreset = \"hpca16\"\n";
    let ok = conn.run(good, Format::Table).unwrap().unwrap();
    assert_eq!(ok.meta_field("computed"), Some(1));
    assert!(ok.body.contains("asm-matmul"), "{}", ok.body);

    conn.shutdown().unwrap().unwrap();
    handle.join().unwrap();
}

#[test]
fn oversized_requests_are_refused_before_resolving() {
    let dir = TempDir::new("oversized");
    let (addr, handle, engine) = start_server("127.0.0.1:0", &dir);
    let mut conn = Connection::connect(&addr, 5).unwrap();

    // Four billion generated programs in one short request: refused on
    // the count alone, before any workload is built in memory.
    let huge = "name = \"huge\"\nkind = \"fuzz\"\nprograms = 4294967295\n\
                \n[variant.base]\npreset = \"hpca16\"\n";
    let err = conn.run(huge, Format::Table).unwrap().unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(err.contains("4294967295 cells"), "got {err:?}");
    assert!(!err.contains('\n'), "error replies are one line");

    // One cell, but a register file of four billion entries per class:
    // refused by config validation before any structure is allocated.
    let huge = "name = \"bigprf\"\nworkloads = [\"crafty\"]\n\
                \n[variant.base]\npreset = \"hpca16\"\npregs_per_class = 4000000000\n";
    let err = conn.run(huge, Format::Table).unwrap().unwrap_err();
    assert!(err.starts_with("scenario: "), "got {err:?}");
    assert!(err.contains("pregs_per_class = 4000000000"), "got {err:?}");
    assert!(!err.contains('\n'), "error replies are one line");
    assert_eq!(
        engine.requests(),
        0,
        "both refused before they were accepted"
    );

    // The same connection keeps answering.
    let pong = conn.ping().unwrap().unwrap();
    assert_eq!(pong.meta, "pong len=0");

    conn.shutdown().unwrap().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_commands_get_protocol_errors() {
    use std::io::{BufRead, BufReader, Write};
    let dir = TempDir::new("proto");
    let (addr, handle, _) = start_server("127.0.0.1:0", &dir);

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"frobnicate\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("err protocol: "), "got {line:?}");

    // The connection is still alive after the error.
    stream.write_all(b"ping\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "ok pong len=0\n");

    stream.write_all(b"shutdown\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "ok bye len=0\n");
    handle.join().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_end_to_end() {
    let dir = TempDir::new("unix");
    std::fs::create_dir_all(&dir.0).unwrap();
    let sock = dir.0.join("serve.sock").to_str().unwrap().to_string();
    let (addr, handle, _) = start_server(&sock, &dir);
    assert_eq!(addr, sock);

    let mut conn = Connection::connect(&sock, 5).unwrap();
    let scenario = tiny("e2e_unix");
    let cold = conn.run(&scenario.render(), Format::Json).unwrap().unwrap();
    assert_eq!(cold.meta_field("computed"), Some(2));
    assert!(cold.body.contains("\"cached\": false"));

    let warm = conn.run(&scenario.render(), Format::Json).unwrap().unwrap();
    assert_eq!(warm.meta_field("computed"), Some(0));
    assert!(warm.body.contains("\"cached\": true"));

    conn.shutdown().unwrap().unwrap();
    handle.join().unwrap();
    assert!(
        !std::path::Path::new(&sock).exists(),
        "socket file cleaned up on shutdown"
    );
}
