//! Quickstart: compile the paper's Listing-1 wordcount source with the
//! HeteroDoop directive compiler, run it as a GPU task on the simulated
//! Tesla K40, and compare against the CPU streaming path.
//!
//! Run with: `cargo run --example quickstart`
use hetero_runtime::OptFlags;
use heterodoop::{measure_task, CompiledKernel, Preset};

fn main() {
    // 1. Compile the annotated sequential C program (paper Listing 1).
    let app = hetero_apps::app_by_code("WC").unwrap();
    let compiled = heterodoop::compile(app.mapper_source()).unwrap();
    println!("== generated CUDA-like kernel ==\n{}", compiled.sources[0]);

    // 2. The same source runs functionally through the interpreter.
    let mapper = CompiledKernel::new(&compiled);
    let mut pairs = Vec::new();
    struct Collect<'a>(&'a mut Vec<(Vec<u8>, Vec<u8>)>);
    impl hetero_runtime::Emit for Collect<'_> {
        fn emit(&mut self, k: &[u8], v: &[u8]) -> bool {
            self.0.push((k.to_vec(), v.to_vec()));
            true
        }
        fn charge(&mut self, _: hetero_runtime::OpCount) {}
        fn read_ro(&mut self, _: u64) {}
    }
    hetero_runtime::Mapper::map(
        &mapper,
        b"the quick brown fox the",
        &mut Collect(&mut pairs),
    );
    println!("== mapped 'the quick brown fox the' ==");
    for (k, v) in &pairs {
        println!(
            "  {} -> {}",
            String::from_utf8_lossy(k),
            String::from_utf8_lossy(v)
        );
    }

    // 3. Measure one fileSplit as a GPU task vs a CPU-core task.
    let preset = Preset::cluster1();
    let m = measure_task(app.as_ref(), &preset, OptFlags::all(), 2000, 42).unwrap();
    println!("\n== single-task measurement (Cluster1, Tesla K40) ==");
    println!("GPU task: {:.3} ms", m.gpu.total_s() * 1e3);
    println!("CPU task: {:.3} ms", m.cpu.total_s() * 1e3);
    println!("speedup : {:.2}x over one CPU core", m.speedup);
}
