// Fixture: writes routed through the crash-safety contract (A001).

pub fn safe_csv(rows: &[String]) -> std::io::Result<()> {
    let mut content = String::new();
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    write_atomic(std::path::Path::new("results/table.csv"), &content)
}

// Stand-in for csa_experiments::artifact::write_atomic in this fixture.
pub fn write_atomic(path: &std::path::Path, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        // csa-lint: allow(A001) this IS the atomic tmp+fsync+rename write
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, content.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

// Reading is not a write:
pub fn read(path: &std::path::Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}
