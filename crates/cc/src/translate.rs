//! Kernel extraction and translation (paper §4.1–§4.2).
//!
//! Converts an analyzed region into a [`KernelSpec`]: the annotated loop
//! is extracted into a new GPU kernel function, bookkeeping parameters are
//! added, CPU I/O calls are swapped for their runtime equivalents
//! (`getline`→`getRecord`, `printf`→`emitKV`/`storeKV`, `scanf`→`getKV`),
//! variables are renamed with the `gpu_` prefix, and vectorization /
//! shared-memory decisions are recorded. The spec drives both the
//! CUDA-like code generator ([`crate::codegen`]) and the simulated-GPU
//! execution configuration in the HeteroDoop core.

use crate::ast::*;
use crate::error::CcError;
use crate::pragma::DirectiveKind;
use crate::region::RegionUnit;
use crate::sema::{Analysis, Placement, RegionInfo};
use std::collections::BTreeMap;

/// A kernel parameter added by the translator.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelParam {
    /// Parameter name in the generated kernel.
    pub name: String,
    /// C type spelling.
    pub ty: String,
    /// Why it exists.
    pub origin: ParamOrigin,
}

/// Provenance of a kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamOrigin {
    /// Internal bookkeeping (ip, recordLocator, devKey, indexArray...).
    Bookkeeping,
    /// Shared read-only scalar (constant memory).
    ConstantScalar(String),
    /// Shared read-only array in global memory.
    GlobalArray(String),
    /// Texture-bound array.
    TextureArray(String),
    /// Initial value of a firstprivate scalar.
    FirstPrivateScalar(String),
    /// Staging pointer for a firstprivate array.
    FirstPrivateArray(String),
}

/// A per-thread private variable materialized inside the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateVar {
    /// `gpu_`-prefixed name.
    pub name: String,
    /// Original name in the user program.
    pub original: String,
    /// C type spelling.
    pub ty: String,
    /// Placed in per-warp shared memory (combiner private arrays, §4.2).
    pub in_shared_mem: bool,
    /// Copied from a firstprivate staging parameter at kernel start.
    pub firstprivate_init: bool,
    /// Element count for arrays (1 for scalars).
    pub elems: usize,
}

/// Everything the rest of the system needs to run the translated kernel.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// `gpu_mapper` or `gpu_combiner`.
    pub name: String,
    /// Mapper or combiner.
    pub kind: DirectiveKind,
    /// Full parameter list in order.
    pub params: Vec<KernelParam>,
    /// Private variables (with shared-memory placement decisions).
    pub privates: Vec<PrivateVar>,
    /// Emitted key length in bytes.
    pub key_length: usize,
    /// Emitted value length in bytes.
    pub val_length: usize,
    /// Vectorized (char4-style) KV access is generated — true when the
    /// key or value is an array (paper §4.1 "Using Vector Data Types").
    pub vectorize: bool,
    /// Threadblock count (from the `blocks` clause or the default).
    pub blocks: u32,
    /// Threads per block (from the `threads` clause or the default).
    pub threads: u32,
    /// `kvpairs` hint, if given.
    pub kvpairs_hint: Option<usize>,
    /// Names of texture-bound arrays (binding order).
    pub textures: Vec<String>,
    /// The translated region body (I/O calls replaced, vars renamed).
    pub body: Stmt,
    /// Key variable (gpu-renamed) for emit calls.
    pub key_var: String,
    /// Value variable (gpu-renamed).
    pub val_var: String,
}

/// Default launch geometry when the user gives no `blocks`/`threads`
/// clauses (matches the prototype's defaults).
pub const DEFAULT_BLOCKS: u32 = 60;
/// Default threads per block.
pub const DEFAULT_THREADS: u32 = 128;

/// Translate every analyzed region of `prog` into kernel specs.
pub fn translate(prog: &Program, analysis: &Analysis) -> Result<Vec<KernelSpec>, CcError> {
    analysis
        .regions
        .iter()
        .zip(&analysis.units)
        .map(|(r, u)| translate_region(prog, r, u))
        .collect()
}

fn translate_region(
    prog: &Program,
    region: &RegionInfo,
    unit: &RegionUnit,
) -> Result<KernelSpec, CcError> {
    let dir = &unit.dir;
    let body = prog
        .region(region.directive_idx)
        .ok_or_else(|| CcError::sema(dir.span, "annotated region disappeared"))?;

    let is_mapper = region.kind == DirectiveKind::Mapper;
    let mut params: Vec<KernelParam> = Vec::new();
    let bk = |name: &str, ty: &str| KernelParam {
        name: name.to_string(),
        ty: ty.to_string(),
        origin: ParamOrigin::Bookkeeping,
    };
    // Bookkeeping parameters, mirroring Listings 3 and 4.
    if is_mapper {
        for (n, t) in [
            ("ip", "char *"),
            ("ipSize", "int"),
            ("recordLocator", "int *"),
            ("devKey", "char *"),
            ("devVal", "char *"),
            ("storesPerThread", "int"),
            ("devKvCount", "int *"),
            ("keyLength", "int"),
            ("valLength", "int"),
            ("indexArray", "int *"),
            ("numReducers", "int"),
        ] {
            params.push(bk(n, t));
        }
    } else {
        for (n, t) in [
            ("keys", "char *"),
            ("values", "char *"),
            ("opKey", "char *"),
            ("opVal", "char *"),
            ("indexArray", "int *"),
            ("size", "int"),
            ("mapKeyLength", "int"),
            ("mapValLength", "int"),
            ("combKeyLength", "int"),
            ("combValLength", "int"),
        ] {
            params.push(bk(n, t));
        }
    }

    // HandleVariables (Algorithm 1): turn placements into parameters and
    // private declarations.
    let mut privates = Vec::new();
    let mut textures = Vec::new();
    let mut renames: BTreeMap<String, String> = BTreeMap::new();
    for (var, placement) in &region.placements {
        let ty = region.types.get(var).cloned().unwrap_or(CType::Int);
        let gpu_name = format!("gpu_{var}");
        match placement {
            Placement::ConstantScalar => {
                params.push(KernelParam {
                    name: var.clone(),
                    ty: ty.c_name(),
                    origin: ParamOrigin::ConstantScalar(var.clone()),
                });
            }
            Placement::GlobalArray => {
                params.push(KernelParam {
                    name: var.clone(),
                    ty: ptr_spelling(&ty),
                    origin: ParamOrigin::GlobalArray(var.clone()),
                });
            }
            Placement::TextureArray => {
                params.push(KernelParam {
                    name: var.clone(),
                    ty: ptr_spelling(&ty),
                    origin: ParamOrigin::TextureArray(var.clone()),
                });
                textures.push(var.clone());
            }
            Placement::Private | Placement::FirstPrivateScalar | Placement::FirstPrivateArray => {
                let fp = !matches!(placement, Placement::Private);
                if fp {
                    params.push(KernelParam {
                        name: format!("{var}FP"),
                        ty: if ty.is_array() || matches!(ty, CType::Ptr(_)) {
                            ptr_spelling(&ty)
                        } else {
                            ty.c_name()
                        },
                        origin: if matches!(placement, Placement::FirstPrivateArray) {
                            ParamOrigin::FirstPrivateArray(var.clone())
                        } else {
                            ParamOrigin::FirstPrivateScalar(var.clone())
                        },
                    });
                }
                let elems = match &ty {
                    CType::Array(_, Some(n)) => *n,
                    _ => 1,
                };
                // Combiner private arrays go to per-warp shared memory
                // (paper §4.2); mapper privates stay in registers/local.
                let in_shared = !is_mapper && ty.is_array();
                privates.push(PrivateVar {
                    name: gpu_name.clone(),
                    original: var.clone(),
                    ty: ty.c_name(),
                    in_shared_mem: in_shared,
                    firstprivate_init: fp,
                    elems,
                });
                renames.insert(var.clone(), gpu_name);
            }
        }
    }

    // Region-local declarations also become gpu_ privates.
    for name in &unit.inner_decls {
        renames
            .entry(name.clone())
            .or_insert_with(|| format!("gpu_{name}"));
    }

    let vectorize = region.key_is_array || region.val_is_array;
    let translated = rewrite_stmt(body, &renames, is_mapper);

    Ok(KernelSpec {
        name: if is_mapper {
            "gpu_mapper".to_string()
        } else {
            "gpu_combiner".to_string()
        },
        kind: region.kind,
        params,
        privates,
        key_length: region.key_length,
        val_length: region.val_length,
        vectorize,
        blocks: dir.blocks.unwrap_or(DEFAULT_BLOCKS),
        threads: dir.threads.unwrap_or(DEFAULT_THREADS),
        kvpairs_hint: dir.kvpairs,
        textures,
        body: translated,
        key_var: renames
            .get(&dir.key)
            .cloned()
            .unwrap_or_else(|| dir.key.clone()),
        val_var: renames
            .get(&dir.value)
            .cloned()
            .unwrap_or_else(|| dir.value.clone()),
    })
}

fn ptr_spelling(ty: &CType) -> String {
    match ty {
        CType::Array(el, _) => format!("{} *", leaf(el).c_name()),
        CType::Ptr(el) => format!("{} *", leaf(el).c_name()),
        other => format!("{} *", other.c_name()),
    }
}

fn leaf(t: &CType) -> &CType {
    match t {
        CType::Array(inner, _) | CType::Ptr(inner) => leaf(inner),
        other => other,
    }
}

/// Rewrite the region: rename privates to `gpu_*` and replace CPU I/O
/// calls with runtime equivalents.
fn rewrite_stmt(s: &Stmt, renames: &BTreeMap<String, String>, is_mapper: bool) -> Stmt {
    let kind = match &s.kind {
        StmtKind::Decl(ds) => StmtKind::Decl(
            ds.iter()
                .map(|d| Declarator {
                    ty: d.ty.clone(),
                    name: renames
                        .get(&d.name)
                        .cloned()
                        .unwrap_or_else(|| d.name.clone()),
                    init: d.init.as_ref().map(|e| rewrite_expr(e, renames, is_mapper)),
                })
                .collect(),
        ),
        StmtKind::Expr(e) => StmtKind::Expr(rewrite_expr(e, renames, is_mapper)),
        StmtKind::While { cond, body } => StmtKind::While {
            cond: rewrite_expr(cond, renames, is_mapper),
            body: Box::new(rewrite_stmt(body, renames, is_mapper)),
        },
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => StmtKind::For {
            init: init
                .as_ref()
                .map(|i| Box::new(rewrite_stmt(i, renames, is_mapper))),
            cond: cond.as_ref().map(|c| rewrite_expr(c, renames, is_mapper)),
            step: step.as_ref().map(|st| rewrite_expr(st, renames, is_mapper)),
            body: Box::new(rewrite_stmt(body, renames, is_mapper)),
        },
        StmtKind::If { cond, then, els } => StmtKind::If {
            cond: rewrite_expr(cond, renames, is_mapper),
            then: Box::new(rewrite_stmt(then, renames, is_mapper)),
            els: els
                .as_ref()
                .map(|e| Box::new(rewrite_stmt(e, renames, is_mapper))),
        },
        StmtKind::Return(e) => {
            StmtKind::Return(e.as_ref().map(|x| rewrite_expr(x, renames, is_mapper)))
        }
        StmtKind::Block(v) => StmtKind::Block(
            v.iter()
                .map(|st| rewrite_stmt(st, renames, is_mapper))
                .collect(),
        ),
        StmtKind::Annotated(i, inner) => {
            StmtKind::Annotated(*i, Box::new(rewrite_stmt(inner, renames, is_mapper)))
        }
        other => other.clone(),
    };
    Stmt { kind, span: s.span }
}

fn rewrite_expr(e: &Expr, renames: &BTreeMap<String, String>, is_mapper: bool) -> Expr {
    match e {
        Expr::Ident(n) => Expr::Ident(renames.get(n).cloned().unwrap_or_else(|| n.clone())),
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(rewrite_expr(x, renames, is_mapper))),
        Expr::PostInc(x) => Expr::PostInc(Box::new(rewrite_expr(x, renames, is_mapper))),
        Expr::PostDec(x) => Expr::PostDec(Box::new(rewrite_expr(x, renames, is_mapper))),
        Expr::Binary(op, a, b, site) => Expr::Binary(
            *op,
            Box::new(rewrite_expr(a, renames, is_mapper)),
            Box::new(rewrite_expr(b, renames, is_mapper)),
            *site,
        ),
        Expr::Assign(op, a, b) => Expr::Assign(
            *op,
            Box::new(rewrite_expr(a, renames, is_mapper)),
            Box::new(rewrite_expr(b, renames, is_mapper)),
        ),
        Expr::Cond(c, t, f) => Expr::Cond(
            Box::new(rewrite_expr(c, renames, is_mapper)),
            Box::new(rewrite_expr(t, renames, is_mapper)),
            Box::new(rewrite_expr(f, renames, is_mapper)),
        ),
        Expr::Index(a, b, site) => Expr::Index(
            Box::new(rewrite_expr(a, renames, is_mapper)),
            Box::new(rewrite_expr(b, renames, is_mapper)),
            *site,
        ),
        Expr::Cast(t, x) => Expr::Cast(t.clone(), Box::new(rewrite_expr(x, renames, is_mapper))),
        Expr::Call(name, args, site) => {
            let args: Vec<Expr> = args
                .iter()
                .map(|a| rewrite_expr(a, renames, is_mapper))
                .collect();
            // Replace CPU library calls with runtime equivalents
            // (paper §4.1/§4.2 translation step; Listings 3 and 4).
            let new_name = match (name.as_str(), is_mapper) {
                ("getline", true) => "getRecord",
                ("scanf", false) => "getKV",
                ("printf", true) => "emitKV",
                ("printf", false) => "storeKV",
                ("strcmp", _) => "strcmpGPU",
                ("strcpy", _) => "strcpyGPU",
                ("strlen", _) => "strlenGPU",
                (n, _) => n,
            };
            Expr::Call(new_name.to_string(), args, *site)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::sema::analyze;
    use crate::test_listings::{LISTING1, LISTING2};

    fn spec_for(src: &str) -> KernelSpec {
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        translate(&prog, &a).unwrap().remove(0)
    }

    #[test]
    fn mapper_kernel_has_listing3_bookkeeping_params() {
        let spec = spec_for(LISTING1);
        assert_eq!(spec.name, "gpu_mapper");
        let names: Vec<&str> = spec.params.iter().map(|p| p.name.as_str()).collect();
        for expect in [
            "ip",
            "ipSize",
            "recordLocator",
            "devKey",
            "devVal",
            "storesPerThread",
            "devKvCount",
            "indexArray",
            "numReducers",
        ] {
            assert!(names.contains(&expect), "missing param {expect}");
        }
    }

    #[test]
    fn mapper_privates_are_gpu_renamed() {
        let spec = spec_for(LISTING1);
        let names: Vec<&str> = spec.privates.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"gpu_word"));
        assert!(names.contains(&"gpu_one"));
        assert!(names.contains(&"gpu_offset"));
        // Mapper privates are not in shared memory.
        assert!(spec.privates.iter().all(|p| !p.in_shared_mem));
    }

    #[test]
    fn io_calls_replaced_with_runtime_equivalents() {
        let spec = spec_for(LISTING1);
        let mut calls = Vec::new();
        walk_exprs(&spec.body, &mut |e| {
            if let Expr::Call(n, ..) = e {
                calls.push(n.clone());
            }
        });
        assert!(calls.contains(&"getRecord".to_string()));
        assert!(calls.contains(&"emitKV".to_string()));
        assert!(!calls.contains(&"getline".to_string()));
        assert!(!calls.contains(&"printf".to_string()));
    }

    #[test]
    fn array_key_enables_vectorization() {
        let spec = spec_for(LISTING1);
        assert!(spec.vectorize, "char[30] key should vectorize");
        assert_eq!(spec.key_var, "gpu_word");
        assert_eq!(spec.key_length, 30);
    }

    #[test]
    fn combiner_kernel_matches_listing4_shape() {
        let spec = spec_for(LISTING2);
        assert_eq!(spec.name, "gpu_combiner");
        let names: Vec<&str> = spec.params.iter().map(|p| p.name.as_str()).collect();
        for expect in ["keys", "values", "opKey", "opVal", "indexArray", "size"] {
            assert!(names.contains(&expect), "missing param {expect}");
        }
        // Firstprivate staging params, as in Listing 4.
        assert!(names.contains(&"prevWordFP"));
        assert!(names.contains(&"countFP"));
    }

    #[test]
    fn combiner_private_arrays_go_to_shared_memory() {
        let spec = spec_for(LISTING2);
        let pw = spec
            .privates
            .iter()
            .find(|p| p.original == "prevWord")
            .unwrap();
        assert!(pw.in_shared_mem);
        assert!(pw.firstprivate_init);
        assert_eq!(pw.elems, 30);
        let count = spec
            .privates
            .iter()
            .find(|p| p.original == "count")
            .unwrap();
        assert!(!count.in_shared_mem); // scalars stay in registers
    }

    #[test]
    fn combiner_io_replacement() {
        let spec = spec_for(LISTING2);
        let mut calls = Vec::new();
        walk_exprs(&spec.body, &mut |e| {
            if let Expr::Call(n, ..) = e {
                calls.push(n.clone());
            }
        });
        assert!(calls.contains(&"getKV".to_string()));
        assert!(calls.contains(&"storeKV".to_string()));
        assert!(calls.contains(&"strcmpGPU".to_string()));
        assert!(calls.contains(&"strcpyGPU".to_string()));
    }

    #[test]
    fn launch_clauses_respected() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) blocks(96) threads(256) kvpairs(4)
  while (getline(&word, 0, stdin) != -1) { one = 1; printf("%s\t%d\n", word, one); }
}
"#;
        let spec = spec_for(src);
        assert_eq!(spec.blocks, 96);
        assert_eq!(spec.threads, 256);
        assert_eq!(spec.kvpairs_hint, Some(4));
    }

    #[test]
    fn default_launch_geometry() {
        let spec = spec_for(LISTING1);
        assert_eq!(spec.blocks, DEFAULT_BLOCKS);
        assert_eq!(spec.threads, DEFAULT_THREADS);
    }

    #[test]
    fn texture_params_recorded() {
        let src = r#"
int main() {
  double centroids[64]; char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) texture(centroids)
  while (getline(&word, 0, stdin) != -1) { one = centroids[0] > 0.5; printf("x\t1\n"); }
}
"#;
        let spec = spec_for(src);
        assert_eq!(spec.textures, vec!["centroids"]);
        assert!(spec
            .params
            .iter()
            .any(|p| matches!(&p.origin, ParamOrigin::TextureArray(n) if n == "centroids")));
    }
}
