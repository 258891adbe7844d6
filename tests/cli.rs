//! End-to-end tests of the `dap` CLI binary (spawned as a real process via
//! the path Cargo exports for integration tests).

use std::io::Write;
use std::process::Command;

fn dap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dap"))
}

fn fixture_file() -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    writeln!(
        f,
        "relation UserGroup(user, grp) {{ (ann, staff), (bob, staff), (bob, dev) }}
         relation GroupFile(grp, file) {{ (staff, report), (dev, main), (dev, report) }}"
    )
    .expect("write fixture");
    f.into_temp_path()
}

/// Minimal stand-in for the `tempfile` crate (not in the offline set):
/// a named file in the target tmp dir, deleted on drop.
mod tempfile {
    use std::path::{Path, PathBuf};

    pub struct NamedTempFile {
        path: PathBuf,
        file: std::fs::File,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<NamedTempFile> {
            let dir = std::env::temp_dir();
            let path = dir.join(format!(
                "dap-cli-test-{}-{:?}.dap",
                std::process::id(),
                std::thread::current().id()
            ));
            let file = std::fs::File::create(&path)?;
            Ok(NamedTempFile { path, file })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

const QUERY: &str = "project(join(scan UserGroup, scan GroupFile), [user, file])";

#[test]
fn eval_prints_the_view() {
    let db = fixture_file();
    let out = dap()
        .args(["eval", db.to_str().unwrap(), QUERY])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("bob") && text.contains("report"),
        "got:\n{text}"
    );
}

#[test]
fn witnesses_lists_both_derivations() {
    let db = fixture_file();
    let out = dap()
        .args(["witnesses", db.to_str().unwrap(), QUERY, "bob,report"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("2 minimal witnesses"), "got:\n{text}");
}

#[test]
fn delete_view_and_source_objectives() {
    let db = fixture_file();
    for objective in ["view", "source"] {
        let out = dap()
            .args([
                "delete",
                db.to_str().unwrap(),
                QUERY,
                "bob,report",
                objective,
            ])
            .output()
            .expect("runs");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("delete {"), "got:\n{text}");
        assert!(text.contains("solver:"), "got:\n{text}");
    }
}

#[test]
fn annotate_picks_side_effect_free_location() {
    let db = fixture_file();
    let out = dap()
        .args([
            "annotate",
            db.to_str().unwrap(),
            QUERY,
            "ann,report",
            "user",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("annotate (UserGroup#0, user)"),
        "got:\n{text}"
    );
    assert!(text.contains("side effects: 0"), "got:\n{text}");
}

#[test]
fn classify_and_tables_need_no_db() {
    let out = dap().args(["classify", QUERY]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("NP-hard"));

    let out = dap().args(["tables"]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Queries involving JU"));
}

#[test]
fn normalize_shows_branches() {
    let db = fixture_file();
    let out = dap()
        .args(["normalize", db.to_str().unwrap(), QUERY])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 branch(es):"), "got:\n{text}");
}

#[test]
fn bad_usage_fails_with_message() {
    let out = dap().args(["delete"]).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "got:\n{err}");

    let out = dap().args(["nonsense"]).output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn missing_tuple_is_an_error() {
    let db = fixture_file();
    let out = dap()
        .args(["delete", db.to_str().unwrap(), QUERY, "zz,zz"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in the view"));
}

/// **Spawned-process smoke test**: `dap serve` comes up, answers a real
/// client round trip, drains gracefully on SIGTERM (exit code 0, final
/// status line), and the directory recovers with everything it served.
#[cfg(unix)]
#[test]
fn serve_round_trips_and_drains_on_sigterm() {
    use dap::serve::{Client, ClientOptions};
    use std::io::BufRead as _;
    use std::time::{Duration, Instant};

    let db = fixture_file();
    let dir = std::env::temp_dir().join(format!("dap-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dap()
        .args(["init", dir.to_str().unwrap(), db.to_str().unwrap()])
        .output()
        .expect("init runs");
    assert!(out.status.success());

    let mut child = dap()
        .args(["serve", dir.to_str().unwrap(), "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut lines = std::io::BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let banner = lines
        .next()
        .expect("serve prints its address before blocking")
        .expect("stdout readable");
    let addr: std::net::SocketAddr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .expect("banner carries an address");

    // A real round trip against the spawned process.
    let mut c = Client::new(addr, ClientOptions::new("smoke"));
    let reg = c
        .register(&dap::relalg::parse_query("scan UserGroup").unwrap())
        .expect("register answers");
    assert!(matches!(reg, dap::serve::Response::Ok { .. }), "{reg:?}");
    let del = c
        .delete_source(&[dap::relalg::Tid::new("UserGroup", 2)])
        .expect("delete answers");
    assert!(matches!(del, dap::serve::Response::Ok { .. }), "{del:?}");

    // SIGTERM: graceful drain, clean exit, parting status line.
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("serve did not drain within 10s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "SIGTERM drain must exit cleanly");
    let parting: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        parting.iter().any(|l| l.contains("server stopped")),
        "got: {parting:?}"
    );

    // Everything acknowledged survived the drain.
    let out = dap()
        .args(["recover", dir.to_str().unwrap()])
        .output()
        .expect("recover runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("last_seq 2") || text.contains("seq 2"),
        "got:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// **Spawned-process signal test**: stopping and continuing `dap serve`
/// (SIGSTOP, then SIGCONT) interrupts every session's timed socket read
/// with `EINTR`. That is not a dead peer: the same connection, and the
/// subscription it holds, must keep working.
#[cfg(unix)]
#[test]
fn serve_sessions_survive_sigstop_and_sigcont() {
    use dap::serve::{Client, ClientOptions, Response};
    use std::io::BufRead as _;
    use std::time::{Duration, Instant};

    let db = fixture_file();
    let dir = std::env::temp_dir().join(format!("dap-cli-sigstop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dap()
        .args(["init", dir.to_str().unwrap(), db.to_str().unwrap()])
        .output()
        .expect("init runs");
    assert!(out.status.success());

    /// Kills the server if an assertion fails first (SIGKILL also ends a
    /// stopped process).
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child = Reap(
        dap()
            .args(["serve", dir.to_str().unwrap(), "0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("serve spawns"),
    );
    let pid = child.0.id().to_string();
    let signal = |sig: &str| {
        let status = std::process::Command::new("kill")
            .args([sig, &pid])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill {sig} {pid}");
    };
    let mut lines = std::io::BufReader::new(child.0.stdout.take().expect("piped stdout")).lines();
    let banner = lines
        .next()
        .expect("serve prints its address before blocking")
        .expect("stdout readable");
    let addr: std::net::SocketAddr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .expect("banner carries an address");

    let mut c = Client::new(addr, ClientOptions::new("stopped"));
    let reg = c
        .register(&dap::relalg::parse_query("scan UserGroup").unwrap())
        .expect("register answers");
    let Response::Ok { body, .. } = reg else {
        panic!("register answered {reg:?}")
    };
    let id =
        dap::serve::protocol::parse_query_id(body.split(' ').next().unwrap()).expect("query id");
    let sub = c.subscribe(id).expect("subscribe answers");
    assert!(matches!(sub, Response::Ok { .. }), "{sub:?}");
    // Let the session's reader go back to its blocking read, so the stop
    // lands inside it.
    std::thread::sleep(Duration::from_millis(200));

    signal("-STOP");
    let stat = format!("/proc/{pid}/stat");
    let deadline = Instant::now() + Duration::from_secs(10);
    // The state letter follows the parenthesized command name.
    while std::fs::read_to_string(&stat)
        .ok()
        .and_then(|s| s.rsplit(") ").next().map(|r| r.starts_with('T')))
        != Some(true)
    {
        assert!(Instant::now() < deadline, "serve never stopped");
        std::thread::sleep(Duration::from_millis(5));
    }
    signal("-CONT");

    // The same session answers, and still carries the subscription: an
    // event only reaches the connection that subscribed.
    let del = c
        .delete_source(&[dap::relalg::Tid::new("UserGroup", 0)])
        .expect("delete answers");
    assert!(matches!(del, Response::Ok { .. }), "{del:?}");
    let events = c.take_events();
    assert_eq!(
        events.len(),
        1,
        "subscription survived the stop: {events:?}"
    );

    signal("-TERM");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.0.try_wait().expect("try_wait").is_none() {
        assert!(
            Instant::now() < deadline,
            "serve did not drain within 10s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
